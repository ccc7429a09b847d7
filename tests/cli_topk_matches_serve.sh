#!/usr/bin/env bash
# The CLI and the server answer one top-k query the same way: for one
# model and seed, `query --top-k=K --dump-topk` lists exactly the
# (node, score) pairs of serve's {"top_k":K} reply, the seed excluded,
# byte for byte at %.17g.
#
# Usage: tests/cli_topk_matches_serve.sh path/to/bepi_cli
set -euo pipefail
cli="$1"
work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT

"$cli" generate --out="$work/graph.txt" --nodes=400 --edges=1800 \
  --deadends=0.2 --seed=7 >/dev/null
"$cli" preprocess --graph="$work/graph.txt" --model="$work/model.bin" \
  >/dev/null 2>&1
for seed in 3 5 17; do
  "$cli" query --model="$work/model.bin" --seed-node="$seed" --top-k=25 \
    --dump-topk="$work/cli.txt" >/dev/null 2>&1
  printf '{"op":"query","seed":%d,"top_k":25}\n' "$seed" |
    "$cli" serve --model="$work/model.bin" 2>/dev/null >"$work/serve.json"
  # parse_float=str keeps the reply's %.17g literals as written.
  python3 - "$work/serve.json" "$seed" >"$work/serve.txt" <<'PY'
import json, sys
reply = json.loads(open(sys.argv[1]).readline(), parse_float=str)
assert reply["ok"], reply
assert reply["mode"] == "exact", reply
for node, score in reply["topk"]:
    print(node, score)
PY
  if ! cmp -s "$work/cli.txt" "$work/serve.txt"; then
    echo "seed $seed: CLI --dump-topk and serve top_k differ" >&2
    diff "$work/cli.txt" "$work/serve.txt" >&2 || true
    exit 1
  fi
  if [ "$(wc -l <"$work/cli.txt")" -ne 25 ] ||
    grep -q "^$seed " "$work/cli.txt"; then
    echo "seed $seed: want 25 entries without the seed itself" >&2
    cat "$work/cli.txt" >&2
    exit 1
  fi
done
echo "CLI --dump-topk matches the serve top_k reply for seeds 3, 5, 17"
