#!/bin/sh
# Style lint for invariants the OCaml toolchain does not enforce:
#   - no trailing whitespace (sources, docs, build files)
#   - no tab indentation in OCaml sources (this repo indents with spaces)
#   - no unresolved merge-conflict markers
#   - no PRNG seeding outside Osek.Draw in lib/osek and lib/robust
#   - no domain-count parameter threaded through lib/ (Parallel owns it)
# PAPERS.md and SNIPPETS.md are vendored reference text and exempt from
# the whitespace rules.  Run from the repository root; exits non-zero
# listing every offending line.  CI runs this alongside build + runtest.
set -u

status=0
tab=$(printf '\t')
tmp=$(mktemp)
trap 'rm -f "$tmp"' EXIT

report() {
  if [ -s "$tmp" ]; then
    echo "lint: $1" >&2
    cat "$tmp" >&2
    status=1
  fi
}

git grep --untracked -nI -e "[ $tab]\$" -- \
  '*.ml' '*.mli' '*.md' '*.yml' '*.sh' 'dune-project' '*/dune' \
  ':!PAPERS.md' ':!SNIPPETS.md' >"$tmp" || true
report "trailing whitespace"

git grep --untracked -nI -e "^$tab" -- '*.ml' '*.mli' >"$tmp" || true
report "tab indentation in OCaml source"

git grep --untracked -nI -e '^<<<<<<< ' -e '^>>>>>>> ' -e '^||||||| ' -- \
  '*.ml' '*.mli' '*.md' '*.yml' >"$tmp" || true
report "merge conflict marker"

# Keyed draws go through Osek.Draw, the one place that seeds the PRNG
# in the fault and timing models (DESIGN.md, "Keyed draws and their
# memos").
git grep --untracked -nI -e 'Random\.State\.make' -- \
  'lib/osek/*.ml' 'lib/robust/*.ml' ':!lib/osek/draw.ml' >"$tmp" || true
report "Random.State.make outside Draw in lib/osek or lib/robust"

# The domain budget is scoped once (Parallel.with_domains) and read
# where work fans out; no library function takes a ?domains/~domains
# label (DESIGN.md, "One execution context").  Parallel itself and the
# daemon's worker pool are the only places that name a domain count.
git grep --untracked -nIE -e '[?~]\(?domains([^A-Za-z0-9_]|$)' -- \
  'lib/*.ml' 'lib/*.mli' ':!lib/robust/parallel.ml' \
  ':!lib/robust/parallel.mli' ':!lib/serve/daemon.ml' >"$tmp" || true
report "?domains/~domains label in lib/ outside Parallel and Daemon"

# Every public value in the observability, robustness, redundancy and
# campaign service interfaces, the simulator and traces must carry an
# odoc comment (this repo documents
# values with a (** ... *) immediately after the declaration).  A val
# with no doc comment before the next val (or EOF) is flagged.
for f in lib/obs/*.mli lib/litmus/*.mli lib/proptest/*.mli lib/redund/*.mli \
  lib/serve/*.mli lib/core/sim.mli lib/core/trace.mli lib/robust/*.mli \
  lib/osek/draw.mli; do
  awk -v file="$f" '
    /^val / {
      if (pending != "" && !documented)
        printf "%s:%d: undocumented public value: %s\n", file, pline, pending
      pending = $2; sub(/:$/, "", pending); pline = NR; documented = 0
    }
    /\(\*\*/ { documented = 1 }
    END {
      if (pending != "" && !documented)
        printf "%s:%d: undocumented public value: %s\n", file, pline, pending
    }
  ' "$f"
done >"$tmp"
report "undocumented public .mli value (lib/obs, lib/litmus, lib/proptest, lib/redund, lib/serve, lib/robust, lib/core/sim.mli, lib/core/trace.mli, lib/osek/draw.mli)"

exit $status
