#!/usr/bin/env bash
# Non-test Rust lines: one line per crate, then the totals for crates/ +
# src/ and for examples/nkbench. A file counts up to its first line that
# starts with `#[cfg(test)]`, and a file under a `tests/` directory does not
# count at all. Run from anywhere; prints "<lines> <what>" per line.
set -eu
cd "$(dirname "$0")/.."

count() { # <dir>...: the non-test lines of the .rs files under them
    find "$@" -name '*.rs' -not -path '*/tests/*' -not -path '*/target/*' \
        -exec sed -s '/^#\[cfg(test)\]/,$d' {} + | wc -l
}

for manifest in $(find crates -name Cargo.toml -not -path '*/target/*' | sort); do
    dir=$(dirname "$manifest")
    echo "$(count "$dir") ${dir#crates/}"
done
echo "$(count crates src) crates/ + src/"
echo "$(count examples/nkbench) examples/nkbench"
