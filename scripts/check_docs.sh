#!/usr/bin/env bash
# Docs gate: every markdown link in the operator-facing docs must resolve.
#
# Checks, for each file passed (default: README.md DESIGN.md EXPERIMENTS.md
# ROADMAP.md):
#   * `[text](#anchor)`        — anchor must match a heading in the same file
#   * `[text](file#anchor)`    — file must exist and contain the heading
#   * `[text](path)`           — relative path must exist (file or directory)
# http(s) links are skipped (no network in CI). Anchors are slugified the
# way GitHub does: lowercase, punctuation stripped, spaces to hyphens.
#
# It also checks that README's environment-variable table lists exactly the
# `BASM_*` names the code under crates/ passes to `std::env::var`, so a
# deleted knob cannot linger in the docs and a new one cannot go
# undocumented, and that README's sentence "The library crates read …"
# names exactly the knobs read outside crates/bench (the experiment
# harness). It checks that every cargo feature the docs tell an operator to
# pass (a `--features` flag in README, DESIGN, EXPERIMENTS, scripts/ or the
# verify skill) is declared by a workspace manifest, so a deleted feature
# cannot linger in a build command. It checks that no file under results/
# names a `BASM_*` variable the code no longer reads, so an artifact cannot
# describe a knob that is gone. It checks DESIGN §7's "no hook in a kernel":
# no `basm_obs::` call in basm-tensor's GEMM, SIMD or buffer-pool source,
# and none in pool.rs but `par_map`'s flush. And it checks that README's "Artifact index" table names
# exactly the files under results/ (brace forms like `x.{txt,json}` expand),
# so a deleted artifact cannot keep its row and a new one cannot go unlisted.
set -uo pipefail
cd "$(dirname "$0")/.."

files=("$@")
if [ ${#files[@]} -eq 0 ]; then
    files=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md)
fi

# Print the GitHub-style anchor slugs of every heading in $1.
anchors_of() {
    grep -E '^#{1,6} ' "$1" \
        | sed -E 's/^#{1,6} +//' \
        | tr '[:upper:]' '[:lower:]' \
        | sed -E 's/`//g; s/[^a-z0-9 _-]//g; s/ /-/g'
}

fail=0
for doc in "${files[@]}"; do
    if [ ! -f "$doc" ]; then
        echo "check_docs: MISSING DOC $doc" >&2
        fail=1
        continue
    fi
    anchors=$(anchors_of "$doc")
    # Pull out link targets: [text](target). One per line; ignore images'
    # leading '!' by matching the parenthesized group only.
    targets=$(grep -oE '\]\([^)[:space:]]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//') || true
    while IFS= read -r target; do
        [ -z "$target" ] && continue
        case "$target" in
            http://*|https://*|mailto:*) continue ;;
        esac
        file=${target%%#*}
        anchor=""
        case "$target" in
            *'#'*) anchor=${target#*#} ;;
        esac
        if [ -n "$file" ] && [ ! -e "$file" ]; then
            echo "check_docs: $doc -> broken path '$target'" >&2
            fail=1
            continue
        fi
        if [ -n "$anchor" ]; then
            if [ -n "$file" ]; then
                have=$(anchors_of "$file")
            else
                have=$anchors
            fi
            if ! printf '%s\n' "$have" | grep -qxF "$anchor"; then
                where=${file:-$doc}
                echo "check_docs: $doc -> anchor '#$anchor' not found in $where" >&2
                fail=1
            fi
        fi
    done <<< "$targets"
done

# Env knobs: names read in code (comment lines skipped) vs names in
# README's table rows under "## Environment variables".
read_knobs=$(grep -rhE --include='*.rs' 'env::var(_os)?\("BASM_' crates \
    | grep -vE '^[[:space:]]*//' \
    | grep -oE 'env::var(_os)?\("BASM_[A-Z0-9_]+"' \
    | grep -oE 'BASM_[A-Z0-9_]+' | sort -u)
doc_knobs=$(sed -n '/^## Environment variables/,/^## /p' README.md \
    | grep -oE '^\| `BASM_[A-Z0-9_]+`' \
    | grep -oE 'BASM_[A-Z0-9_]+' | sort -u)
if [ -z "$read_knobs" ] || [ -z "$doc_knobs" ]; then
    echo "check_docs: could not extract env knobs (code: '$read_knobs', README: '$doc_knobs')" >&2
    fail=1
elif [ "$read_knobs" != "$doc_knobs" ]; then
    echo "check_docs: README env table and std::env::var reads under crates/ differ:" >&2
    diff <(printf '%s\n' "$read_knobs") <(printf '%s\n' "$doc_knobs") \
        | sed -nE 's/^< /  read in code, missing from README: /p; s/^> /  in README, read nowhere: /p' >&2
    fail=1
fi

# Library knobs: names read under crates/ outside the bench harness vs the
# backticked names in README's "The library crates read ..." sentence.
lib_knobs=$(grep -rhE --include='*.rs' 'env::var(_os)?\("BASM_' crates --exclude-dir=bench \
    | grep -vE '^[[:space:]]*//' \
    | grep -oE 'env::var(_os)?\("BASM_[A-Z0-9_]+"' \
    | grep -oE 'BASM_[A-Z0-9_]+' | sort -u)
doc_lib_knobs=$(grep -E '^The library crates read' README.md \
    | grep -oE '`BASM_[A-Z0-9_]+`' | tr -d '`' | sort -u)
if [ "$lib_knobs" != "$doc_lib_knobs" ]; then
    echo "check_docs: README's library-knob sentence names '$(echo $doc_lib_knobs)'," \
        "but the library crates read '$(echo $lib_knobs)'" >&2
    fail=1
fi

# Cargo features: every name after a `--features` flag (comma lists and
# the `=` form included) in the operator docs must be declared in some
# workspace manifest's [features] table. `crate/feature` names are checked
# by their feature part.
feature_docs=(README.md DESIGN.md EXPERIMENTS.md scripts/* .claude/skills/verify/SKILL.md)
declared=$(for m in Cargo.toml crates/*/Cargo.toml; do
        sed -n '/^\[features\]/,/^\[/p' "$m" | grep -oE '^[A-Za-z0-9_-]+ *=' | tr -d ' ='
    done | sort -u)
for doc in "${feature_docs[@]}"; do
    [ -f "$doc" ] || continue
    while IFS=: read -r line flags; do
        [ -z "$flags" ] && continue
        for f in $(printf '%s\n' "$flags" | sed -E 's/^--features[= ]+//' | tr ',' ' '); do
            f=${f##*/}
            if ! printf '%s\n' "$declared" | grep -qxF "$f"; then
                echo "check_docs: $doc:$line names cargo feature '$f', which no workspace manifest declares" >&2
                fail=1
            fi
        done
    done < <(grep -noE -- '--features[= ]+[A-Za-z0-9_,/-]+' "$doc")
done

# Stale knobs in artifacts: a file under results/ that names a `BASM_*`
# variable no code under crates/ reads was made by, or describes, a build
# that no longer exists.
if [ -n "$read_knobs" ]; then
    while IFS=: read -r artifact knob; do
        [ -z "$knob" ] && continue
        if ! printf '%s\n' "$read_knobs" | grep -qxF "$knob"; then
            echo "check_docs: results/$artifact names $knob, which no code under crates/ reads" >&2
            fail=1
        fi
    done < <(cd results && grep -roE 'BASM_[A-Z0-9_]+' . | sed 's|^\./||' | sort -u)
fi

# No hook in a kernel (DESIGN §7): kernels and the pool record nothing; the
# only telemetry call left in pool.rs is par_map's worker flush. Comment
# lines are skipped.
kernel_hooks=$(grep -nE 'basm_obs::' crates/tensor/src/{linalg,simd,bufpool,pool}.rs \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' \
    | grep -vE '^crates/tensor/src/pool\.rs:[0-9]+:[[:space:]]*basm_obs::flush\(\);$') || true
if [ -n "$kernel_hooks" ]; then
    echo "check_docs: telemetry hook in a kernel or the pool (DESIGN §7):" >&2
    printf '%s\n' "$kernel_hooks" | sed 's/^/  /' >&2
    fail=1
fi

# Artifacts: backticked names in the first column of the README table under
# "### Artifact index" vs the files committed under results/.
expand_braces() {
    while IFS= read -r name; do
        case "$name" in
            *'{'*'}'*)
                local pre=${name%%\{*} rest=${name#*\{}
                local alts=${rest%%\}*} post=${rest#*\}}
                local -a parts
                IFS=, read -ra parts <<< "$alts"
                for p in "${parts[@]}"; do echo "$pre$p$post"; done
                ;;
            *) echo "$name" ;;
        esac
    done
}
doc_artifacts=$(sed -n '/^### Artifact index/,/^##/p' README.md \
    | grep -E '^\| `' | cut -d'|' -f2 \
    | grep -oE '`[^`]+`' | tr -d '`' | expand_braces | sort -u)
have_artifacts=$(cd results && find . -type f | sed 's|^\./||' | sort -u)
if [ -z "$doc_artifacts" ]; then
    echo "check_docs: could not extract README's artifact index" >&2
    fail=1
elif [ "$doc_artifacts" != "$have_artifacts" ]; then
    echo "check_docs: README artifact index and results/ differ:" >&2
    diff <(printf '%s\n' "$have_artifacts") <(printf '%s\n' "$doc_artifacts") \
        | sed -nE 's/^< /  in results\/, missing from README: /p; s/^> /  in README, missing from results\/: /p' >&2
    fail=1
fi

if [ "$fail" -ne 0 ]; then
    echo "check_docs: FAILED" >&2
    exit 1
fi
echo "check_docs: OK (${files[*]}; env knobs: $(echo $read_knobs); library knobs: $(echo $lib_knobs); artifacts: $(echo "$have_artifacts" | wc -l))"
