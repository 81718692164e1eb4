#!/usr/bin/env bash
# CLI smoke run through the installed fddsense entry point, in the current
# directory, under umask 022: a model saved and loaded again, and the
# robustness scenarios, the dead sensor included by default, on bagging
# models (bootstrapped, without the bootstrap, and with every feature at
# each node) and a boosting model; the scenarios without the dead sensor
# (--no-failure), and on a table of more than one 8,192-row load block;
# then a small bagging study, whose model.json has open()'s mode 644 as
# the simgen CSV has, and a 2-round boosting study, whose saved models go
# through the loader again, a study whose --feature-subsample all beats a
# config file's count, and a study on the CSV that prints one k= line per
# step of its rfa_trace.json; robustness on that study's model.json, given
# --sensor as rfa_trace.json's ranking[0] (without it, robustness perturbs
# the model's own top-ranked sensor), prints the scenario labels of the
# study's last k= line.
# Last, each command line with an out-of-range flag or a config file with
# a bad value must fail with one Error line that names the flag or key,
# exit 1 and print no traceback, and so must a --data file that cannot be
# read, named by --data.
#
#   cd "$(mktemp -d)" && bash /path/to/repo/.github/cli_smoke.sh
set -euo pipefail
umask 022

fddsense simgen --rows 3000 --seed 4 --out d.csv
for flags in "" "--no-bootstrap" "--feature-subsample all" "--method boosting"; do
  rm -rf r
  fddsense train --data d.csv --trees 5 --model-out m.json $flags
  fddsense importance --model m.json --top 3
  fddsense robustness --model m.json --data d.csv --out r
  grep -q '"mode": "failure"' r/robustness.json
done
fddsense robustness --model m.json --data d.csv --no-failure --out rn
test -f rn/robustness.json
if grep -q '"mode": "failure"' rn/robustness.json; then exit 1; fi
fddsense simgen --rows 9000 --seed 5 --out big.csv
fddsense robustness --model m.json --data big.csv --out rb
test -f rb/robustness.json
fddsense pipeline --rows 3000 --trees 3 --out p
fddsense importance --model p/model.json --top 3
for file in p/model.json d.csv; do test "$(stat -c %a "$file")" = 644; done
fddsense pipeline --method boosting --trees 2 --rows 3000 --out pb
fddsense importance --model pb/model.json --top 3
echo '{"ensemble": {"feature_subsample": 4}}' > fs.json
fddsense pipeline --config fs.json --feature-subsample all --rows 3000 --trees 2 --out pf
grep -q '"feature_subsample": null' pf/config.json
fddsense pipeline --data d.csv --trees 3 --max-sensors 3 --snr 10,3,0 --out pr | tee pr.txt
test "$(grep -c '^k=' pr.txt)" -eq "$(python3 -c 'import json; print(len(json.load(open("pr/rfa_trace.json"))["steps"]))')"
first="$(python3 -c 'import json; print(json.load(open("pr/rfa_trace.json"))["ranking"][0]["sensor"])')"
fddsense robustness --model pr/model.json --data d.csv --snr 10,3,0 --sensor "$first" | tee prr.txt
test "$(grep '^k=' pr.txt | tail -n 1 | grep -o ' [^ =]*:[^ =]*=' | tr -d ' =')" = \
  "$(tail -n +2 prr.txt | cut -d ' ' -f 1 | sed 's/:$//')"
while IFS='|' read -r name args config; do
  echo "$config" > bad.json
  status=0
  # args is unquoted: it is a command line, split into words on purpose.
  fddsense $args > bad.txt 2>&1 || status=$?
  cat bad.txt
  test "$status" -eq 1
  test "$(wc -l < bad.txt)" -eq 1
  test "$(cut -d ' ' -f 1-3 bad.txt)" = "Error: InvalidValueError: $name"
  if grep -q Traceback bad.txt; then exit 1; fi
done <<'BAD'
--snr|pipeline --snr 4000 --out bad-out|
--snr|robustness --model m.json --data d.csv --snr 4000|
--snr|pipeline --snr 3,3 --out bad-out|
--snr|robustness --model m.json --data d.csv --snr nan|
--min-leaf|train --data d.csv --min-leaf 0 --model-out bad-model.json|
--learning-rate|pipeline --learning-rate 2 --out bad-out|
--max-sensors|pipeline --max-sensors 0 --out bad-out|
--rows|simgen --rows 0 --out bad.csv|
n_threads|pipeline --config bad.json|{"n_threads": 2}
rfa.max_sensors|pipeline --config bad.json|{"rfa": {"max_sensors": 2.5}}
ensemble.method|pipeline --config bad.json|{"ensemble": {"method": 1}}
ensemble.max_depth|pipeline --config bad.json|{"ensemble": {"max_depth": 2.0}}
data.path|pipeline --config bad.json|{"data": {"path": ""}}
robustness.snr_db|pipeline --config bad.json|{"robustness": {"snr_db": [3, 3]}}
ensemble.learning_rate|pipeline --config bad.json|{"ensemble": {"learning_rate": 5.0}}
BAD
for args in "pipeline --data nope.csv --out bad-out" "robustness --model m.json --data nope.csv"; do
  status=0
  fddsense $args > bad.txt 2>&1 || status=$?
  cat bad.txt
  test "$status" -eq 1
  test "$(wc -l < bad.txt)" -eq 1
  grep -q '^Error: .*--data' bad.txt
  if grep -q Traceback bad.txt; then exit 1; fi
done
