#!/usr/bin/env bash
# Counts the Rust that ships: non-blank, non-comment lines per crate
# under crates/, leaving out tests/, benches/ and `#[cfg(test)]` modules.
# ROADMAP makes "net negative lines" a success metric; this makes it a
# number instead of a diffstat guess. Dependency-free (find + awk).
#
# Usage: scripts/loc.sh [ROOT]      (default: this checkout)
#   prints `<crate> <lines>` per crate and a `total` line.
#
# A `#[cfg(test)]` module is skipped from its attribute to the closing
# brace at the attribute's own indentation — what rustfmt writes — and a
# `#[cfg(test)] mod name;` skips the module's file (`name.rs` or
# everything under `name/`). Block comments and doc-comment lines count
# as comments; a line with code and a trailing comment counts as code.
set -euo pipefail

root="${1:-$(dirname "$0")/..}"
cd "$root"

total=0
for crate in crates/*/; do
    name="$(basename "$crate")"
    [ -d "$crate/src" ] || continue
    lines="$(find "$crate/src" -name '*.rs' -print0 | sort -z | xargs -0 awk '
        # First read every file for its `#[cfg(test)] mod name;` lines.
        # The module lives beside lib.rs/main.rs/mod.rs, and under
        # foo/ for foo.rs.
        BEGIN {
            for (a = 1; a < ARGC; a++) {
                f = ARGV[a]; base = f; armed = 0
                sub(/(\/(lib|main|mod))?\.rs$/, "", base)
                while ((getline l < f) > 0) {
                    if (armed && match(l, /^[ \t]*(pub )?mod [a-z_0-9]+;/)) {
                        name = substr(l, 1, RLENGTH - 1)
                        sub(/.* /, "", name)
                        test_mod[base "/" name] = 1
                    }
                    armed = l ~ /^[ \t]*#\[cfg\(test\)\]/
                }
                close(f)
            }
        }
        FNR == 1 {
            in_test = 0; armed = 0; in_block = 0; skip = 0
            for (m in test_mod)
                if (FILENAME == m ".rs" || index(FILENAME, m "/") == 1) skip = 1
        }
        skip { next }
        {
            line = $0
            indent = match(line, /[^ ]/) - 1
            sub(/^[ \t]+/, "", line)
        }
        in_test {
            if (indent == test_indent && line ~ /^}/) in_test = 0
            next
        }
        in_block {
            if (line ~ /\*\//) in_block = 0
            next
        }
        line ~ /^#\[cfg\(test\)\]/ { armed = 1; test_indent = indent; next }
        armed {
            armed = 0
            if (line ~ /^(pub )?mod [a-z_]+ \{/) { in_test = 1; next }
            if (line ~ /^(pub )?mod [a-z_]+;/) next
        }
        line == "" || line ~ /^\/\// { next }
        line ~ /^\/\*/ { if (line !~ /\*\//) in_block = 1; next }
        { n++ }
        END { print n + 0 }
    ')"
    printf '%-12s %6d\n' "$name" "$lines"
    total=$((total + lines))
done
printf '%-12s %6d\n' total "$total"
