#!/usr/bin/env bash
# Every fixed bug stays caught: apply each mutant of the corpus (default
# scripts/mutants.txt, format in its header) to a scratch copy of the
# checkout and run only the test it names. A mutant is killed when its test
# fails, or when the test starts and its process dies before it reports (an
# abort, a stack overflow). Fails when a mutant survives its test, when the
# test fails, crashes or runs no test at all without the mutant, or
# when the mutant's line is not found exactly once in the file's non-test
# code. An entry marked `expect: survivor` must survive instead, and fails
# the run when its test kills it, so the entry gets promoted. It also
# plants one mutant that changes nothing and fails unless it sees that one
# survive, so a runner that cannot tell the two apart fails too. Builds
# in debug, in its own target directory: ~1 min per crate the first time,
# then an incremental rebuild and one test per mutant.
#   scripts/check-mutants.sh [corpus]
set -euo pipefail
cd "$(dirname "$0")/.."
corpus=$(realpath "${1:-scripts/mutants.txt}")

work=$(mktemp -d "${TMPDIR:-/tmp}/nk-mutants.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir "$work/src"
git ls-files -co --exclude-standard | grep -v '^target/' | tar -cf - -T - | tar -xf - -C "$work/src"
export CARGO_TARGET_DIR="$work/target"
cd "$work/src"

# Run one test (`cargo test` arguments, then its full name) and print
# passed, failed, crashed (it started, and its process died without a
# result), or why none of them.
run_test() {
  local args=("$@") out
  local name=${args[-1]}
  unset 'args[-1]'
  if ! cargo test -q --no-run "${args[@]}" >"$work/build.log" 2>&1; then
    echo "does not build"
    return
  fi
  out=$(cargo test -q "${args[@]}" -- --exact "$name" 2>&1 || true)
  if grep -q 'test result: ok\. 1 passed' <<<"$out"; then
    echo passed
  elif grep -q 'test result: FAILED\. 0 passed; 1 failed' <<<"$out"; then
    echo failed
  elif grep -q '^running 1 test$' <<<"$out"; then
    echo crashed
  else
    echo "ran no test named $name"
  fi
}

# Check one entry; print a verdict line and return 1 unless the test passes
# unmutated and fails mutated (passes mutated, given a survivor's reason).
check_entry() { # <file> <line> <with> <test> [<survivor reason>]
  local file=$1 line=$2 with=$3 test=$4 survivor=${5:-} found verdict
  # shellcheck disable=SC2086 # the test field is cargo arguments, one per word
  verdict=$(run_test $test)
  if [ "$verdict" != passed ]; then
    echo "BROKEN $file: unmutated, $test: $verdict"
    return 1
  fi
  found=$(sed '/^#\[cfg(test)\]/,$d' "$file" | grep -cxF -- "$line" || true)
  if [ "$found" -ne 1 ]; then
    echo "MISSING $file: the line occurs $found times in non-test code: $line"
    return 1
  fi
  cp "$file" "$work/original"
  L=$line W=$with awk '!done && $0 == ENVIRON["L"] { print ENVIRON["W"]; done = 1; next } { print }' \
    "$work/original" >"$file"
  # shellcheck disable=SC2086
  verdict=$(run_test $test)
  cp "$work/original" "$file"
  if [ -n "$survivor" ]; then
    if [ "$verdict" != passed ]; then
      echo "KILLED expected survivor $file: $line -> $with: $test $verdict (promote the entry)"
      return 1
    fi
    echo "survived as expected $file: ${line#"${line%%[![:space:]]*}"} ($survivor)"
    return 0
  fi
  case $verdict in
    failed) echo "killed $file: ${line#"${line%%[![:space:]]*}"}" ;;
    crashed) echo "killed $file: ${line#"${line%%[![:space:]]*}"} (its test crashed)" ;;
    *)
      echo "SURVIVED $file: $line -> $with: $test $verdict"
      return 1
      ;;
  esac
}

status=0 entries=0 survivors=0 file='' line='' with='' survivor=''
while IFS= read -r row || [ -n "$row" ]; do
  case $row in
    'file: '*) file=${row#file: } ;;
    'line: '*) line=${row#line: } ;;
    'with: '*) with=${row#with: } ;;
    'expect: survivor '?*) survivor=${row#expect: survivor } ;;
    'test: '*)
      entries=$((entries + 1))
      if [ -n "$survivor" ]; then
        survivors=$((survivors + 1))
      fi
      check_entry "$file" "$line" "$with" "${row#test: }" "$survivor" || status=1
      planted=("$file" "$line" "${row#test: }")
      survivor=''
      ;;
  esac
done <"$corpus"

# The planted mutant: the corpus's last line with a trailing space, which
# no test can tell from the original.
if check_entry "${planted[0]}" "${planted[1]}" "${planted[1]} " "${planted[2]}" >/dev/null; then
  echo "the runner saw a mutant that changes nothing killed"
  status=1
fi
echo "mutants: $entries in the corpus, $survivors of them expected survivors, status $status"
exit $status
