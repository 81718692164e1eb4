#!/usr/bin/env bash
# CLI smoke run through the installed fddsense entry point, in the current
# directory: a model saved and loaded again, and the robustness scenarios,
# on bagging models (bootstrapped, without the bootstrap, and with every
# feature at each node) and a boosting model, and the scenarios on a table
# of more than one 8,192-row load block; then a small study, whose saved
# model goes through the loader again, and a Recursive Feature Addition
# run.  Last, an out-of-range flag and each config file with a bad value
# must fail with one Error line that names the flag or key, exit 1 and
# print no traceback.
#
#   cd "$(mktemp -d)" && bash /path/to/repo/.github/cli_smoke.sh
set -euo pipefail

fddsense simgen --rows 3000 --seed 4 --out d.csv
for flags in "" "--no-bootstrap" "--feature-subsample all" "--method boosting"; do
  rm -rf r
  fddsense train --data d.csv --trees 5 --model-out m.json $flags
  fddsense importance --model m.json --top 3
  fddsense robustness --model m.json --data d.csv --fail-sensor --out r
  test -f r/robustness.json
done
fddsense simgen --rows 9000 --seed 5 --out big.csv
fddsense robustness --model m.json --data big.csv --fail-sensor --out rb
test -f rb/robustness.json
fddsense pipeline --rows 3000 --trees 3 --out p
fddsense importance --model p/model.json --top 3
fddsense rfa --data d.csv --trees 3 --max-sensors 3 --snr 10,3,0
status=0
fddsense pipeline --snr 4000 --out bad-out > bad.txt 2>&1 || status=$?
cat bad.txt
test "$status" -eq 1
test "$(wc -l < bad.txt)" -eq 1
test "$(cut -d ' ' -f 1-3 bad.txt)" = "Error: InvalidValueError: --snr"
if grep -q Traceback bad.txt; then exit 1; fi
while read -r key config; do
  echo "$config" > bad.json
  status=0
  fddsense pipeline --config bad.json > bad.txt 2>&1 || status=$?
  cat bad.txt
  test "$status" -eq 1
  test "$(wc -l < bad.txt)" -eq 1
  test "$(cut -d ' ' -f 1-3 bad.txt)" = "Error: InvalidValueError: $key"
  if grep -q Traceback bad.txt; then exit 1; fi
done <<'CONFIGS'
n_threads {"n_threads": 2}
rfa.max_sensors {"rfa": {"max_sensors": 2.5}}
ensemble.method {"ensemble": {"method": 1}}
ensemble.max_depth {"ensemble": {"max_depth": 2.0}}
data.path {"data": {"path": ""}}
robustness.snr_db {"robustness": {"snr_db": [3, 3]}}
ensemble.learning_rate {"ensemble": {"learning_rate": 5.0}}
CONFIGS
