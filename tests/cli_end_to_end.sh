#!/usr/bin/env bash
# The installed console script end to end: gen, verify, factorize and check runs, their exit
# codes, and cmp of files and reports that must be byte-identical. It works in a temporary
# directory, removed on exit, and takes the command from $ENTBASIS (default entbasis):
#   ENTBASIS="python -m entbasis.cli" PYTHONPATH="$PWD/src" bash tests/cli_end_to_end.sh
set -e
ENTBASIS=${ENTBASIS:-entbasis}
# a numpy warning that leaks out of a CLI run fails the script, as it fails pytest
export PYTHONWARNINGS=error::RuntimeWarning
work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
cd "$work"
# expect CODE CMD...: run CMD, and fail the script unless it exits with CODE
expect() {
  local want=$1 code=0
  shift
  "$@" || code=$?
  test "$code" -eq "$want"
}
$ENTBASIS gen --dim 3 --out b3.json
$ENTBASIS gen --dim 3 > b3_stdout.json
cmp b3.json b3_stdout.json
# gen --out writes the bytes themselves, stdout their text: the same file
for d in 1 2 5; do
  $ENTBASIS gen --dim "$d" --out "f$d.json"
  $ENTBASIS gen --dim "$d" > "f${d}_stdout.json"
  cmp "f$d.json" "f${d}_stdout.json"
done
$ENTBASIS verify b3.json
# the same basis as compact JSON is read by the general reader
python -c "import json; json.dump(json.load(open('b3.json')), open('b3c.json', 'w'))"
$ENTBASIS verify b3c.json
$ENTBASIS gen --dim 8 --construction sylvester --out s8.json
$ENTBASIS gen --dim 8 --construction sylvester > s8_stdout.json
cmp s8.json s8_stdout.json
$ENTBASIS verify s8.json
# a Sylvester file holds only +-1.0 and 0.0, no rounding residue such as 1.2e-16
if grep -q 'e-' s8.json; then exit 1; fi
$ENTBASIS gen --dim 16 --construction sylvester --out s16.json
$ENTBASIS gen --dim 16 --construction sylvester > s16_stdout.json
cmp s16.json s16_stdout.json
# eight Hadamard matrices with random phases on both sides: the basis's doubles that
# are not 0.0 are nearly all distinct, and its one block is one span
python -c "
import numpy as np
from entbasis import fourier_hadamard
from entbasis.fileio import matrix_to_obj, save_json
rng = np.random.default_rng(5)
for k in range(8):
    phases = np.exp(2j * np.pi * rng.random((2, 8)))
    save_json(matrix_to_obj(phases[0][:, None] * fourier_hadamard(8) * phases[1]), 'h%d.json' % k)
"
$ENTBASIS gen --dim 8 --construction custom --hadamard h?.json --out c8.json
$ENTBASIS gen --dim 8 --construction custom --hadamard h?.json > c8_stdout.json
cmp c8.json c8_stdout.json
$ENTBASIS verify c8.json
# gen accepts a family exactly when verify passes its basis: here HH^dag - 2I is off
# by 1.5e-10 but HH^dag / 2 - I by 7.5e-11 < tol; the identity is refused (exit 2)
python -c "
import numpy as np
from entbasis.fileio import matrix_to_obj, save_json
save_json(matrix_to_obj(np.array([[1, 1], [1, -np.exp(1.5e-10j)]])), 'hphi.json')
save_json(matrix_to_obj(np.eye(2)), 'heye.json')
"
expect 0 $ENTBASIS gen --dim 2 --construction custom --hadamard hphi.json --out phi.json
expect 0 $ENTBASIS verify phi.json
expect 2 $ENTBASIS gen --dim 2 --construction custom --hadamard heye.json
# "cols": 10 and "rows": 10 hold a 0 that starts no token
$ENTBASIS gen --dim 10 --out f10.json
$ENTBASIS gen --dim 10 > f10_stdout.json
cmp f10.json f10_stdout.json
$ENTBASIS verify f10.json
# about 1 MB with irrational entries: the layout scan reads it in several
# windows, and the writer splices many distinct doubles per block
$ENTBASIS gen --dim 12 --out f12.json
$ENTBASIS gen --dim 12 > f12_stdout.json
cmp f12.json f12_stdout.json
$ENTBASIS verify f12.json
python -c "import json; json.dump(json.load(open('f12.json')), open('f12c.json', 'w'))"
$ENTBASIS verify f12c.json
# verify certifies gen's own layout from its entries; anything else takes the dense Gram
$ENTBASIS gen --dim 24 --out f24.json
$ENTBASIS gen --dim 24 > f24_stdout.json
cmp f24.json f24_stdout.json
$ENTBASIS verify f24.json
python -c "t = open('f24.json').read(); open('f24_flip.json', 'w').write(t.replace('\n          1.0,', '\n          -1.0,', 1))"
python -c "t = open('f24.json').read(); open('f24_extra.json', 'w').write(t.replace('\n          0.0,', '\n          0.5,', 1))"
# 1e+16 is the writer's own spelling: the scan takes the file, and verify fails it
python -c "t = open('f24.json').read(); open('f24_exp.json', 'w').write(t.replace('\n          0.0,', '\n          1e+16,', 1))"
for bad in f24_flip.json f24_extra.json f24_exp.json; do
  if cmp -s f24.json "$bad"; then exit 1; fi
  expect 1 $ENTBASIS verify "$bad"
done
# another spelling of a double goes to the general reader: the same basis, exit 0
python -c "t = open('f24.json').read(); open('f24_respelled.json', 'w').write(t.replace('\n          1.0,', '\n          1.00,', 1))"
if cmp -s f24.json f24_respelled.json; then exit 1; fi
$ENTBASIS verify f24_respelled.json
# under 2 GiB of address space the scan's populated map of the basis and the general
# reader's JSON tree both fit: each verify passes
for f in f24.json f24_respelled.json; do
  (ulimit -v 2097152
   expect 0 $ENTBASIS verify "$f")
done
# text after the basis is not JSON: a usage error
cp f24.json f24_trailing.json
printf x >> f24_trailing.json
expect 2 $ENTBASIS verify f24_trailing.json
$ENTBASIS check bell-all --trials 50
# every condition fails at d=3: the script must exit 1, not 0 or 2
expect 1 $ENTBASIS check bell-all --basis b3.json --trials 50
# a NaN tolerance is a usage error, not a failed check
expect 2 $ENTBASIS verify b3.json --tol nan
# det-criterion is decided exactly: nothing scales with --trials, so 10^12 trials pass at
# once (under a timeout, so a trial count that reached a loop fails here)
timeout 10 $ENTBASIS check det-criterion --trials 1000000000000
# gen --dim 104, the largest dim it takes, needs a 1.74 GiB basis stack: under 1 GiB of
# address space the allocation fails at once, a usage error with one error line, nothing on
# stdout and no file written
code=0
(ulimit -v 1048576
 timeout 60 $ENTBASIS gen --dim 104 --out big.json > cap.out 2> cap.err) || code=$?
test "$code" -eq 2
test ! -s cap.out
test "$(wc -l < cap.err)" -eq 1
grep -q '^error: Unable to allocate' cap.err
test ! -e big.json
$ENTBASIS check det-criterion --trials 200
# equal command lines write byte-identical reports
$ENTBASIS check det-criterion --trials 300 --seed 4 --report dc_a.json
$ENTBASIS check det-criterion --trials 300 --seed 4 --report dc_b.json
cmp dc_a.json dc_b.json
# several main() calls in one process share one parser: a usage error first,
# then the same report as the console script's
python -c "
from entbasis.cli import main
try:
    main(['check', 'nope'])
    raise AssertionError('no usage error')
except SystemExit as exc:
    assert exc.code == 2, exc.code
assert main(['verify', 'missing.json']) == 2
assert main(['check', 'det-criterion', '--trials', '300', '--seed', '4', '--report', 'dc_c.json']) == 0
"
cmp dc_a.json dc_c.json
# det-criterion samples nothing: --trials and --seed reach nothing, so runs at 150, 300 and
# 1000 trials, seeds 0 and 4, write the same bytes, which say trials 0 and pass
for t in 150 300 1000; do
  for seed in 0 4; do
    $ENTBASIS check det-criterion --trials "$t" --seed "$seed" --report "dc_${t}_$seed.json"
    cmp "dc_${t}_$seed.json" dc_a.json
  done
done
python -c "
import json
r = json.load(open('dc_a.json'))
assert r['trials'] == 0 and r['passed'] and r['maxViolation'] == 0.0 and r['witnesses'] == [], r
"
$ENTBASIS check universality --dim 2 --trials 300
# equal command lines write byte-identical reports, at d=2 and at d=3
$ENTBASIS check bell-all --trials 300 --seed 4 --report ba_a.json
$ENTBASIS check bell-all --trials 300 --seed 4 --report ba_b.json
cmp ba_a.json ba_b.json
for run in a b; do
  expect 1 $ENTBASIS check bell-all --basis b3.json --trials 300 --seed 4 --report "b3_$run.json"
done
cmp b3_a.json b3_b.json
# bell-all decides every condition exactly: --trials and --seed reach nothing, so runs at
# 1000 and 150 trials write the same bytes as the 300-trial run
for t in 1000 150; do
  for run in a b; do
    expect 1 $ENTBASIS check bell-all --basis b3.json --trials "$t" --seed 4 --report "b3_${t}_$run.json"
  done
  cmp "b3_${t}_a.json" "b3_${t}_b.json"
  cmp "b3_${t}_a.json" b3_a.json
done
# nothing is drawn: condition 2 is the centre pair (I, e^(2 pi i/3) I) at sin(2 pi/3),
# condition 5 reads condition 6's pair residual, and condition 4's witnesses are pairs
# (j, k) whose residual is at least sqrt(2 - 8/d^2)
python -c "
import json, math
r = {x['name']: x for x in json.load(open('b3_1000_a.json'))}
two, four = r['bell-condition-2'], r['bell-condition-4']
assert all(x['trials'] == 0 for x in r.values()), r
assert two['witnesses'][0]['pair'] == [0, 1], two
assert abs(two['maxViolation'] - math.sin(2 * math.pi / 3)) <= 1e-12, two
assert r['bell-condition-5']['maxViolation'] == r['bell-condition-6']['maxViolation']
assert len(four['witnesses']) == 8, four
assert all(set(w) == {'pair', 'violation'} and w['pair'][0] < w['pair'][1]
           for w in four['witnesses']), four
assert all(w['violation'] >= math.sqrt(2 - 8 / 9) for w in four['witnesses']), four
"
# d=3 search: the 50 candidates of seed 4, each decided on the 9 generators of u(3)
$ENTBASIS check universality --dim 3 --trials 300 --seed 4 --report u3_a.json
$ENTBASIS check universality --dim 3 --trials 300 --seed 4 --report u3_b.json
cmp u3_a.json u3_b.json
# d=2: the spin flip, decided on the 4 generators of u(2)
$ENTBASIS check universality --dim 2 --trials 300 --seed 4 --report u2_a.json
$ENTBASIS check universality --dim 2 --trials 300 --seed 4 --report u2_b.json
cmp u2_a.json u2_b.json
# universality samples nothing: --trials reaches nothing, so runs at 1000 and 150 trials
# write the same bytes as the 300-trial run, at d=2 and at d=3
for dim in 2 3; do
  for t in 1000 150; do
    $ENTBASIS check universality --dim "$dim" --trials "$t" --seed 4 --report "u${dim}_$t.json"
    cmp "u${dim}_$t.json" "u${dim}_a.json"
  done
done
python -c "
import json
for dim in (2, 3):
    r = json.load(open('u%d_a.json' % dim))
    assert r['trials'] == 0 and r['passed'], r
r = json.load(open('u3_a.json'))
assert r['details']['seed'] == 4 and len(r['witnesses']) == 8, r
assert all(set(w) == {'candidate', 'generator', 'violation'} for w in r['witnesses']), r
"
# a candidate count below one is a usage error at d=2 too, where none is drawn
expect 2 $ENTBASIS check universality --dim 2 --candidates 0
# --latin and --hadamard would be ignored outside --construction custom: a usage error
python -c "import json; json.dump([[0, 1, 2], [1, 2, 0], [2, 0, 1]], open('lat.json', 'w'))"
expect 2 $ENTBASIS gen --dim 3 --latin lat.json
expect 2 $ENTBASIS gen --dim 3 --construction sylvester --hadamard h0.json
# d=4: every condition fails, so each run exits 1
$ENTBASIS gen --dim 4 --out b4.json
for run in a b; do
  expect 1 $ENTBASIS check bell-all --basis b4.json --trials 100 --seed 4 --report "b4_$run.json"
done
cmp b4_a.json b4_b.json
# verify writes its report too
$ENTBASIS verify b3.json --report v3_a.json
$ENTBASIS verify b3.json --report v3_b.json
cmp v3_a.json v3_b.json
# equal command lines write byte-identical Clifford reports
$ENTBASIS check clifford --count 13 --report cl_a.json
$ENTBASIS check clifford --count 13 --report cl_b.json
cmp cl_a.json cl_b.json
# the largest family allowed passes
$ENTBASIS check clifford --count 17
# 19 Clifford generators would be matrices of order 512: refused before building
expect 2 $ENTBASIS check clifford --count 19
# factorize: a local product, the same times the flip, and a non-unitary 4x4
python -c "
import numpy as np
from entbasis import flip_operator, haar_unitary, tensor
from entbasis.fileio import matrix_to_obj, save_json
rng = np.random.default_rng(3)
local = tensor(haar_unitary(2, rng), haar_unitary(2, rng))
save_json(matrix_to_obj(local), 'loc.json')
save_json(matrix_to_obj(local @ flip_operator(2)), 'loc_flip.json')
save_json(matrix_to_obj(2 * np.eye(4)), 'not_unitary.json')
"
$ENTBASIS factorize loc.json > loc.txt
grep -qx "kind: local" loc.txt
$ENTBASIS factorize loc_flip.json > loc_flip.txt
grep -qx "kind: local_flip" loc_flip.txt
# equal command lines write byte-identical factorize reports
$ENTBASIS factorize loc_flip.json --report fz_a.json
$ENTBASIS factorize loc_flip.json --report fz_b.json
cmp fz_a.json fz_b.json
expect 2 $ENTBASIS factorize not_unitary.json
