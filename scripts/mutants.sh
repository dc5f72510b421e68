#!/usr/bin/env bash
# Standing mutant gate: every deliberately broken variant of the
# collector under tests/mutants/ must be caught by the check it names.
#
#   scripts/mutants.sh                      # every tests/mutants/*.patch
#   scripts/mutants.sh tests/mutants/x.patch ...
#
# Each patch starts with a header, then a unified diff against the tree:
#
#   Mutant: <what the patch breaks>
#   Target: <the one CMake target the check needs>
#   Run: <command, relative to the build tree>
#   Expect: <text the failing check must print>
#
# The working tree is copied into build-check/mutants/src (only files
# whose content changed are rewritten, so the build there stays
# incremental) and built once in build-check/mutants/build. For each
# mutant the gate builds the target and runs the command on the clean
# copy, which must pass; then it applies the patch, rebuilds only the
# target, and requires the command to exit non-zero with the expected
# text in its output; then it reverts the patch. Exits non-zero if any
# mutant survives or any check fails on the clean copy.

set -euo pipefail
cd "$(dirname "$0")/.."

ROOT="$PWD"
WORK="$ROOT/build-check/mutants"
SRC="$WORK/src"
BUILD="$WORK/build"
CHECK_TIMEOUT=900

if [ "$#" -gt 0 ]; then
  PATCHES=("$@")
else
  PATCHES=(tests/mutants/*.patch)
fi

# Copies tracked and untracked (not ignored) files of the working tree
# into $SRC, writing a file only when its content differs, so make's
# timestamps rebuild exactly what changed.
sync_tree() {
  local f
  mkdir -p "$SRC"
  git ls-files -z --cached --others --exclude-standard |
    while IFS= read -r -d '' f; do
      [ -f "$f" ] || continue
      if ! cmp -s "$f" "$SRC/$f"; then
        mkdir -p "$SRC/$(dirname "$f")"
        cp "$f" "$SRC/$f"
      fi
    done
}

header() { # header <field> <patch>
  sed -n "s/^$1: //p" "$2" | head -n 1
}

build_target() {
  cmake --build "$BUILD" --target "$1" -j "$(nproc)" >"$WORK/build.log" 2>&1 || {
    tail -n 30 "$WORK/build.log" >&2
    return 1
  }
}

run_check() { # run_check <command> <log>
  # "|| exit" keeps the subshell from exec'ing the check, so an abort is
  # reported into the log rather than by this shell.
  (cd "$BUILD" && timeout "$CHECK_TIMEOUT" bash -c "$1" || exit) >"$2" 2>&1
}

echo "==> mutants: sync and configure"
sync_tree
cmake -B "$BUILD" -S "$SRC" >/dev/null

FAILED=0
for P in "${PATCHES[@]}"; do
  NAME=$(basename "$P" .patch)
  TARGET=$(header Target "$P")
  RUN=$(header Run "$P")
  EXPECT=$(header Expect "$P")
  if [ -z "$TARGET" ] || [ -z "$RUN" ] || [ -z "$EXPECT" ]; then
    echo "[$NAME] ERROR: header needs Target, Run and Expect" >&2
    FAILED=1
    continue
  fi

  build_target "$TARGET"
  if ! run_check "$RUN" "$WORK/$NAME.clean.log"; then
    echo "[$NAME] ERROR: the check fails without the mutant" \
         "(log: $WORK/$NAME.clean.log)" >&2
    FAILED=1
    continue
  fi

  patch -p1 -s -d "$SRC" <"$P"
  STATUS=0
  if ! build_target "$TARGET"; then
    echo "[$NAME] ERROR: the mutant does not build" >&2
    STATUS=2
  elif run_check "$RUN" "$WORK/$NAME.log"; then
    STATUS=1
  elif ! grep -qF -- "$EXPECT" "$WORK/$NAME.log"; then
    STATUS=3
  fi
  patch -p1 -s -R -d "$SRC" <"$P"

  case "$STATUS" in
    0) echo "[$NAME] killed: $EXPECT" ;;
    1) echo "[$NAME] SURVIVED: '$RUN' passed with the mutant" >&2
       FAILED=1 ;;
    3) echo "[$NAME] SURVIVED: '$RUN' failed without printing '$EXPECT'" \
            "(log: $WORK/$NAME.log)" >&2
       FAILED=1 ;;
    *) FAILED=1 ;;
  esac
done

# Leave the build matching the clean copy: the reverted sources are
# newer than the mutant objects, so this recompiles only those files.
for P in "${PATCHES[@]}"; do
  T=$(header Target "$P")
  [ -n "$T" ] && build_target "$T"
done

if [ "$FAILED" != 0 ]; then
  echo "==> mutant gate FAILED" >&2
  exit 1
fi
echo "==> all ${#PATCHES[@]} mutants killed"
