# CLI transcript: every one-shot prefdb subcommand over the two example
# instances. Prints each command line, its stdout, its stderr (lines
# prefixed "! ") and "[exit N]"; the runtest alias diffs the result
# against cli.expected.
#
#   sh test/cli.sh PREFDB MGR_PDB EMP_DENIALS_PDB
#
# Every command runs with -j 1 so the domain count it reports is fixed,
# in a scratch directory holding copies of the instances, so file names
# in the output stay short. Profile timings and percentages are masked.

set -u
abs() { (cd "$(dirname "$1")" && printf '%s/%s\n' "$(pwd)" "$(basename "$1")"); }
prefdb=$(abs "$1")
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
cp "$2" "$tmp/mgr.pdb"
cp "$3" "$tmp/emp_denials.pdb"
cd "$tmp" || exit 1

cat > mgr_repair.pdb <<'EOF'
relation Mgr(Name:name, Dept:name, Salary:int, Reports:int)
fd Dept -> Name Salary Reports
fd Name -> Dept Salary Reports
tuple 'Mary' 'R&D' 40000 3
tuple 'John' 'PR'  30000 4
EOF
cat > mgr_other.pdb <<'EOF'
relation Mgr(Name:name, Dept:name, Salary:int, Reports:int)
fd Dept -> Name Salary Reports
fd Name -> Dept Salary Reports
tuple 'Mary' 'IT'  20000 1
tuple 'John' 'PR'  30000 4
EOF
cat > emp_repair.pdb <<'EOF'
relation Emp(Name:name, Dept:name, Cap:int)
tuple 'Mary' 'R&D' 10
tuple 'John' 'PR' 30
EOF

mask() {
  sed -E 's/ *[0-9]+\.[0-9]+ (ns|us|ms|s)/ T/g; s/ *[0-9]+\.[0-9]+%/ P%/g'
}

run() {
  echo "\$ prefdb $*"
  "$prefdb" "$@" -j 1 > out 2> err
  code=$?
  mask < out
  sed 's/^/! /' err | mask
  echo "[exit $code]"
  echo
}

Q2="exists x1,y1,z1,x2,y2,z2. Mgr('Mary',x1,y1,z1) and Mgr('John',x2,y2,z2) and y1 > y2 and z1 < z2"

# --- the paper's running example (FDs only) ---------------------------------
run info mgr.pdb
run stats mgr.pdb
run stats mgr.pdb -f rep
run count mgr.pdb
run count mgr.pdb --family=g
run facts mgr.pdb
run repairs mgr.pdb
run repairs mgr.pdb -f rep --limit 2
run check mgr.pdb mgr_repair.pdb
run check mgr.pdb mgr_other.pdb
run check mgr.pdb mgr_other.pdb -f rep
run clean mgr.pdb
run clean mgr.pdb --trace
run query mgr.pdb "$Q2"
run query mgr.pdb "Mgr('Mary', 'IT', 20000, 1)"
run query mgr.pdb "Mgr(n, 'R&D', s, r)"
run query mgr.pdb "Mgr("
run query mgr.pdb --trace "$Q2"
run query mgr.pdb --trace "Mgr(n, d, 40000, r)"
run query mgr.pdb "$Q2" --slow-query-ms 0 --slow-query-log slow.jsonl
run validate-slowlog slow.jsonl
run plan mgr.pdb "$Q2"
run plan mgr.pdb --json "exists s,r. Mgr('Mary', 'R&D', s, r)"
run plan mgr.pdb "Mgr("
run explain mgr.pdb "Mgr('Mary', 'IT', 20000, 1)"
run explain mgr.pdb "Mgr(n, 'R&D', s, r)"
run status mgr.pdb "'Mary' 'IT' 20000 1"
run status mgr.pdb "'Ghost' 'X' 1 1"
run aggregate mgr.pdb sum:Salary
run aggregate mgr.pdb count -f rep
run aggregate mgr.pdb bogus
run update mgr.pdb -i "'Bob' 'HR' 5 1" -d "'Mary' 'IT' 20000 1" --save out.pdb
run count out.pdb
run update mgr.pdb -f rep -d "'John' 'PR' 30000 4"
run update mgr.pdb -d "'Ghost' 'X' 1 1"
run update mgr.pdb
run profile mgr.pdb "Mgr('Mary', 'IT', 20000, 1)"
run profile mgr.pdb "exists s,r. Mgr('Mary', 'R&D', s, r)" --trace-out trace.json
run validate-trace trace.json
run hyper info mgr.pdb
run hyper count mgr.pdb
run hyper count mgr.pdb -f global
run hyper repairs mgr.pdb -f pareto --limit 1
run hyper query mgr.pdb -f global "$Q2"
run hyper check mgr.pdb mgr_repair.pdb -f global

# --- denial constraints ------------------------------------------------------
run info emp_denials.pdb
run stats emp_denials.pdb
run count emp_denials.pdb
run facts emp_denials.pdb
run repairs emp_denials.pdb
run check emp_denials.pdb emp_repair.pdb
run clean emp_denials.pdb
run query emp_denials.pdb "Emp('Ann', 'HQ', 500)"
run query emp_denials.pdb --trace "Emp('Ann', 'HQ', 500)"
run plan emp_denials.pdb "Emp('Ann', 'HQ', 500)"
run explain emp_denials.pdb "Emp('Ann', 'HQ', 500)"
run status emp_denials.pdb "'Ann' 'HQ' 500"
run aggregate emp_denials.pdb sum:Cap
run update emp_denials.pdb -i "'Zed' 'OPS' 7"
run profile emp_denials.pdb "Emp('Ann', 'HQ', 500)"
run hyper info emp_denials.pdb
run hyper count emp_denials.pdb
run hyper count emp_denials.pdb -f global
run hyper repairs emp_denials.pdb --limit 1
run hyper query emp_denials.pdb "Emp('Ann', 'HQ', 500)"
run hyper query emp_denials.pdb "exists d,c. Emp('John', d, c)"
run hyper query emp_denials.pdb -f pareto "exists c. Emp('Mary', 'IT', c)"
run hyper query emp_denials.pdb "Emp(n, d, c)"
run hyper check emp_denials.pdb emp_repair.pdb
run hyper check emp_denials.pdb mgr_repair.pdb
