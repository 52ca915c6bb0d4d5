#!/usr/bin/env bash
# The public surface nothing outside its library uses, in two lists of
# `path item` lines:
#
#   - every `pub` fn, method, const, static or trait of a library under
#     crates/*/src (its src/bin/ is not the library) that no non-test code
#     outside that library names: another crate, the crate's own src/bin/,
#     src/, benchmark/ or examples/. A function counts as named where it is
#     imported, called (`f(`, `f::<`) or taken as a path (`T::f`), so a
#     field or module of the same name does not hide it. A method is
#     printed `Type::name`, anything else by its name.
#   - every `pub` field of such a library's struct with a Default impl,
#     derived or written, that no non-test code sets outside that impl: in
#     a struct literal of its type (`Self` inside the type's impls counts),
#     by an assignment or compound assignment (`.field = `, `.field += `),
#     or by `.field.push(` / `extend(` / `insert(`. Printed `Type.field`.
#
# Test code is a file under tests/ or benches/, and everything from a
# file's first `#[cfg(test)]` on. Comments and string literals name
# nothing. There is no type resolution: a method counts as used where any
# outside code calls a method of that name, and a field as set where any
# code assigns a field of that name (`self.field = ` only the impl's own
# type's). So an entry can hide behind a name other code shares; it is
# printed only when no such name is there. Plain bash and awk over
# `git ls-files`; no build.
#
#   scripts/surface.sh         print both lists
#   scripts/surface.sh check   diff them against scripts/surface.allow, one
#                              `path item — reason` line an entry: an entry
#                              with no line fails, and so does a line with
#                              no entry or no reason
set -u -o pipefail
cd "$(dirname "$0")/.."

allow=scripts/surface.allow

# Both lists, sorted. Pass 1 reads each file's words and the items and
# Default structs its library defines; pass 2 reads the struct literals
# and assignments that set fields.
surface() {
    local files prog
    files=$(git ls-files '*.rs' | grep -v '^crates/compat/')
    prog=$(
        cat << 'AWK'
# The line with comments, string and char literals taken out, or "" when
# it is all comment or all inside a string that spans lines.
function clean(line,    q) {
    if (in_str) {
        if (!match(line, /^([^"\\]|\\.)*"/)) return ""
        line = substr(line, RLENGTH + 1)
        in_str = 0
    }
    if (line ~ /^[ \t]*\/\//) return ""
    gsub(/r#"([^"]|"[^#])*"#/, "0", line)
    gsub(/'(\\.|[^'\\])'/, "0", line)
    gsub(/"([^"\\]|\\.)*"/, "0", line)
    sub(/\/\/.*$/, "", line)
    q = index(line, "\"")
    if (q) { line = substr(line, 1, q - 1); in_str = 1 }
    return line
}

# The type an `impl` line is for: generics dropped, the last path segment
# after ` for ` when it implements a trait.
function impl_of(line,    t) {
    t = line
    sub(/^[ \t]*(unsafe[ \t]+)?impl/, "", t)
    while (gsub(/<[^<>]*>/, "", t)) {}
    if (t ~ /[ \t]for[ \t]/) sub(/^.*[ \t]for[ \t]+/, "", t)
    sub(/^[ \t]+/, "", t)
    sub(/[^A-Za-z0-9_:].*$/, "", t)
    sub(/^.*::/, "", t)
    return t
}

# Indentation of a line, in characters.
function indent(line) { match(line, /^[ \t]*/); return RLENGTH }

FNR == 1 {
    in_test = FILENAME ~ /(^|\/)(tests|benches)\//
    lib = ""
    if (FILENAME ~ /^crates\/[^\/]+\/src\// && FILENAME !~ /^crates\/[^\/]+\/src\/bin\//) {
        split(FILENAME, part, "/")
        lib = part[2]
    }
    in_str = 0
    in_use = 0
    impl_type = ""; impl_indent = -1; impl_default = 0
    body = ""; body_indent = -1; derive_default = 0
    commit()
    sp = 0; pdepth = 0; prev = ""; prev2 = ""; prev3 = ""; expect = 0; cand = ""
}
/^#\[cfg\(test\)\]/ { in_test = 1 }
in_test { next }

{
    raw = $0
    line = clean(raw)
    if (line == "") next
    if (impl_indent >= 0 && line ~ /^[ \t]*}[ \t]*$/ && indent(line) == impl_indent) {
        impl_type = ""; impl_indent = -1; impl_default = 0
    }
    if (line ~ /^[ \t]*(unsafe[ \t]+)?impl[ \t<]/ && line ~ /{[ \t]*$/) {
        impl_type = impl_of(line)
        impl_indent = indent(line)
        impl_default = line ~ /[ \t]Default[ \t]+for[ \t]/
    }
}

pass == 1 { words(line) }
pass == 1 && lib != "" { define(line) }
pass == 2 { tokens(line) }

# Pass 1: every word the line names, by who names it; a definition's own
# name is not a use. A function is named only where it is imported, called
# (`f(`, `f::<`) or taken as a path (`T::f`): a field or module of the same
# name does not use it. Those names are kept as "(" name.
function words(line,    n, w, i, s, at, after, imports) {
    gsub(/(fn|const|static|trait)[ \t]+[A-Za-z_][A-Za-z0-9_]*/, "", line)
    n = split(line, w, /[^A-Za-z0-9_]+/)
    for (i = 1; i <= n; i++) if (w[i] != "") saw(w[i])
    imports = in_use || line ~ /^[ \t]*(pub(\([a-z]+\))?[ \t]+)?use[ \t]/
    if (imports) in_use = line !~ /;/
    s = line
    at = 0
    while (match(s, /[A-Za-z_][A-Za-z0-9_]*/)) {
        at += RSTART
        after = substr(s, RSTART + RLENGTH)
        if (after ~ /^[ \t]*(\(|::<)/ || ((imports || substr(line, at - 2, 2) == "::") && after !~ /^::/))
            saw("(" substr(s, RSTART, RLENGTH))
        at += RLENGTH - 1
        s = after
    }
}

function saw(w) {
    if (lib == "") outside[w] = 1
    else if (!((w, lib) in named)) { named[w, lib] = 1; libs[w]++ }
}

# Pass 1: the library's `pub` items, its structs with a Default impl and
# their `pub` fields.
function define(line,    name, at) {
    at = FILENAME
    if (body != "") {
        if (line ~ /^[ \t]*}/ && indent(line) == body_indent) body = ""
        else if (match(line, /^[ \t]*pub[ \t]+[A-Za-z_][A-Za-z0-9_]*[ \t]*:/)) {
            name = line
            sub(/^[ \t]*pub[ \t]+/, "", name)
            sub(/[^A-Za-z0-9_].*$/, "", name)
            field[body, name] = at
        }
        return
    }
    if (line ~ /^[ \t]*#\[derive\(.*Default/) { derive_default = 1; return }
    if (line ~ /^[ \t]*#\[/) return
    if (match(line, /^[ \t]*pub[ \t]+struct[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = line
        sub(/^[ \t]*pub[ \t]+struct[ \t]+/, "", name)
        sub(/[^A-Za-z0-9_].*$/, "", name)
        if (derive_default) has_default[name] = 1
        if (line ~ /{[ \t]*$/) { body = name; body_indent = indent(line) }
    }
    derive_default = 0
    if (line ~ /^[ \t]*impl.*[ \t]Default[ \t]+for[ \t]/) has_default[impl_of(line)] = 1
    if (match(line, /^[ \t]*pub[ \t]+((const|async|unsafe)[ \t]+)*fn[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/^.*fn[ \t]+/, "", name)
        item("(" name, impl_type != "" && indent(line) > impl_indent ? impl_type "::" name : name, at)
    } else if (match(line, /^[ \t]*pub[ \t]+(const|static|(unsafe[ \t]+)?trait)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        name = substr(line, RSTART, RLENGTH)
        sub(/^.*[ \t]/, "", name)
        item(name, name, at)
    }
}

function item(name, label, at) {
    items++
    item_name[items] = name; item_label[items] = label; item_at[items] = at; item_lib[items] = lib
}

# Pass 2: the struct literals and assignments in the line, token by token.
function tokens(line,    t) {
    while (line != "") {
        if (match(line, /^[ \t]+/)) { line = substr(line, RLENGTH + 1); continue }
        if (!match(line, /^[A-Za-z_][A-Za-z0-9_]*/) &&
            !match(line, /^(=>|==|!=|<=|>=|->|::|\.\.=|\.\.|[-+*\/%^&|]=|<<=|>>=)/))
            match(line, /^./)
        t = substr(line, 1, RLENGTH)
        line = substr(line, RLENGTH + 1)
        token(t)
    }
}

# A closed literal's fields count once the next token shows it was not a
# pattern (`let T { .. } =`, `T { .. } =>`).
function commit(    n, f, i) {
    if (pending == "") return
    n = split(pending_fields, f, " ")
    for (i = 1; i <= n; i++) set[pending, f[i]] = 1
    pending = ""
}

function token(t,    ident, name) {
    if (pending != "") {
        if (t == "=" || t == "=>" || t == "|" || t == "else" || t == "@") pending = ""
        else commit()
    }
    ident = t ~ /^[A-Za-z_]/
    if (expect && ident) { cand = t; expect = 0 }
    else {
        if (cand != "" && (t == ":" || t == "," || t == "}")) lit_fields[sp] = lit_fields[sp] " " cand
        cand = ""
        expect = 0
    }
    if (t ~ /^([-+*\/%^&|]|<<|>>)?=$/ && prev ~ /^[A-Za-z_]/ && prev2 == ".") {
        if (prev3 == "self") set[impl_type, prev] = 1
        else assigned[prev] = 1
    }
    if (t ~ /^(push|extend|insert)$/ && prev == "." && prev2 ~ /^[A-Za-z_]/ && prev3 == ".") assigned[prev2] = 1
    if (t == "(" || t == "[") pdepth++
    else if (t == ")" || t == "]") pdepth--
    else if (t == "{") {
        name = prev == "Self" ? impl_type : prev
        sp++
        lit[sp] = ""
        if (name in has_default && prev2 !~ /^(struct|enum|union|impl|for|->|trait|mod|fn|where)$/ &&
            !(impl_default && name == impl_type)) {
            lit[sp] = name; lit_fields[sp] = ""; lit_pdepth[sp] = pdepth
            expect = 1
        }
    } else if (t == "}") {
        # `..}` ends a pattern; a literal's `..` is followed by its base.
        if (sp > 0) {
            if (lit[sp] != "" && prev != "..") { pending = lit[sp]; pending_fields = lit_fields[sp] }
            sp--
        }
    } else if (t == "," && sp > 0 && lit[sp] != "" && pdepth == lit_pdepth[sp]) expect = 1
    prev3 = prev2
    prev2 = prev
    prev = t
}

END {
    commit()
    for (i = 1; i <= items; i++) {
        name = item_name[i]
        if (name in outside || libs[name] > ((name, item_lib[i]) in named)) continue
        print "1 " item_at[i] " " item_label[i]
    }
    for (key in field) {
        split(key, k, SUBSEP)
        if (!(k[1] in has_default) || (k[1], k[2]) in set || k[2] in assigned) continue
        print "2 " field[key] " " k[1] "." k[2]
    }
}
AWK
    )
    # shellcheck disable=SC2086
    awk "$prog" pass=1 $files pass=2 $files | LC_ALL=C sort -u | cut -d' ' -f2-
}

# Both lists against the allowlist: every entry needs its line, and every
# line its entry and a reason.
check() {
    local found listed unlisted stale malformed
    found=$(surface | LC_ALL=C sort) || return 1
    malformed=$(awk '$3 != "—" || NF < 4 { print FILENAME ":" FNR ": " $0 }' "$allow")
    listed=$(awk '{ print $1 " " $2 }' "$allow" | LC_ALL=C sort)
    unlisted=$(LC_ALL=C comm -23 <(echo "$found") <(echo "$listed"))
    stale=$(LC_ALL=C comm -13 <(echo "$found") <(echo "$listed"))
    [ -n "$malformed" ] && echo "$allow: lines with no \`path item — reason\`:" && echo "$malformed"
    [ -n "$unlisted" ] && echo "unused outside its library, and not in $allow (delete it, make it" \
        "pub(crate) or a constant, or add \`path item — reason\`):" && echo "$unlisted"
    [ -n "$stale" ] && echo "lines of $allow that name no entry (delete them):" && echo "$stale"
    [ -z "$malformed$unlisted$stale" ]
}

case "${1:-list}" in
list) surface ;;
check) check ;;
*) echo "usage: scripts/surface.sh [check]" >&2; exit 2 ;;
esac
