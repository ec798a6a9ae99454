#!/usr/bin/env bash
# Simulator hot-path lint: the invariants that keep the event loop
# allocation-free and deterministic (see src/sim/engine.hh).
#
#  1. no std::function in src/sim/ -- event callbacks are
#     util::InlineFunction, which keeps small captures off the heap
#  2. no heap allocation in src/sim/ (new / make_unique / make_shared /
#     malloc) -- deliberate cold-path sites, like slab growth, carry a
#     "lint-hotpath: allow" comment on the offending line
#  3. no wall-clock reads in deterministic modules: simulated time is
#     the only clock src/sim, src/runtime, src/memory, src/fault,
#     src/compaction and src/analysis may observe
#  4. the engine dispatch loops (Engine::run and its helpers invoke,
#     release and finishWindow) and the queue's pop path
#     (Engine::popFront) never allocate or grow containers -- they
#     only pop, invoke and recycle
#
# Exits non-zero on the first violated rule, printing every offending
# line.  Comments are stripped before matching so prose cannot trip the
# token rules.
set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
report() {
    echo "lint-hotpath: $1" >&2
    echo "$2" >&2
    fail=1
}

# Line-wise comment stripping keeps grep -n line numbers honest.
stripped_grep() {
    local pattern=$1 file=$2
    sed 's@//.*@@' "$file" | grep -nE "$pattern" |
        sed "s@^@$file:@" || true
}

# Rule 1: std::function is banned from the simulator core.
hits=""
for f in src/sim/*.hh src/sim/*.cc; do
    hits+=$(stripped_grep 'std::function' "$f")
done
if [ -n "$hits" ]; then
    report "std::function in src/sim/ (use util::InlineFunction)" \
           "$hits"
fi

# Rule 2: heap allocation in src/sim/ needs an explicit annotation.
alloc='\bnew\b|make_unique|make_shared|\bmalloc\(|\bcalloc\('
hits=""
for f in src/sim/*.hh src/sim/*.cc; do
    while IFS= read -r line; do
        [ -z "$line" ] && continue
        n=${line#"$f":}
        n=${n%%:*}
        raw=$(sed -n "${n}p" "$f")
        case "$raw" in
        *"lint-hotpath: allow"*) ;;
        *) hits+="$line"$'\n' ;;
        esac
    done < <(stripped_grep "$alloc" "$f")
done
if [ -n "$hits" ]; then
    report "unannotated heap allocation in src/sim/" "$hits"
fi

# Rule 3: deterministic modules never read the wall clock.
clock='steady_clock|system_clock|high_resolution_clock'
clock+='|gettimeofday|clock_gettime|std::time\b|time\(NULL\)'
clock+='|time\(nullptr\)|<chrono>'
hits=""
for f in src/sim/*.[hc][hc] src/runtime/*.[hc][hc] \
         src/memory/*.[hc][hc] src/fault/*.[hc][hc] \
         src/compaction/*.[hc][hc] src/analysis/*.[hc][hc]; do
    [ -e "$f" ] || continue
    hits+=$(stripped_grep "$clock" "$f")
done
if [ -n "$hits" ]; then
    report "wall-clock read in deterministic code" "$hits"
fi

# Rule 4: the dispatch loops only pop, invoke and recycle.
grow='push_back|emplace_back|\.resize\(|\.reserve\(|\.insert\('
grow+="|$alloc"
loops='run|invoke|release|finishWindow|popFront'
body=$(awk -v start="^Engine::($loops)\\(" '$0 ~ start { inbody = 1 }
            inbody { print }
            /^}/ { inbody = 0 }' src/sim/engine.cc |
       sed 's@//.*@@')
hits=$(grep -nE "$grow" <<<"$body" || true)
if [ -n "$hits" ]; then
    report "allocation or container growth in the Engine dispatch loops" \
           "$hits"
fi

if [ "$fail" = 1 ]; then
    echo "lint-hotpath: FAILED" >&2
    exit 1
fi
echo "lint-hotpath: ok (sim core allocation-free, no wall clock in" \
     "deterministic modules)"
