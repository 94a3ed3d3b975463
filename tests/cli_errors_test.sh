#!/bin/sh
# CLI error-path regression test. Every failure mode here used to be
# silent before the stream-open hardening: a missing model/contexts file
# fell through to a garbage read, an unwritable --out produced a
# zero-byte artifact with exit 0, and an empty eval printed a bare
# "accuracy 0.0%". Run as: cli_errors_test.sh <path-to-pigeon-binary>.
set -u

PIGEON="$1"
TMP=$(mktemp -d)
trap 'rm -rf "$TMP"' EXIT

fail() {
  echo "FAIL: $1" >&2
  exit 1
}

# 1. predict against a model path that does not exist: nonzero exit and
#    a strerror()-bearing diagnostic, not a bad-stream read.
echo 'var x = 1;' > "$TMP/a.js"
if "$PIGEON" predict --model "$TMP/no-such-model.bin" "$TMP/a.js" \
    > /dev/null 2> "$TMP/err1"; then
  fail "predict with a missing model exited 0"
fi
grep -q "cannot read $TMP/no-such-model.bin" "$TMP/err1" \
  || fail "predict error lacks the failing path: $(cat "$TMP/err1")"
grep -q "No such file or directory" "$TMP/err1" \
  || fail "predict error lacks strerror text: $(cat "$TMP/err1")"

# 2. eval / train with a missing contexts artifact: same contract.
for CMD in "eval --model $TMP/no-such.bin --from-contexts $TMP/no-such.ctx" \
           "train --from-contexts $TMP/no-such.ctx --out $TMP/m.bin"; do
  if "$PIGEON" $CMD > /dev/null 2> "$TMP/err2"; then
    fail "'pigeon $CMD' exited 0"
  fi
  grep -q "No such file or directory" "$TMP/err2" \
    || fail "'pigeon $CMD' error lacks strerror text: $(cat "$TMP/err2")"
done

# A small trained bundle for the write-path and empty-eval checks.
"$PIGEON" synth --lang js --out "$TMP/corpus" --projects 3 --seed 7 \
  > /dev/null 2>&1 || fail "synth failed"
"$PIGEON" train --lang js --task vars --out "$TMP/model.bin" "$TMP/corpus" \
  > /dev/null 2>&1 || fail "train failed"

# 3. train --out into a directory that does not exist: the save must
#    report the failed open instead of pretending the bundle was written.
if "$PIGEON" train --lang js --task vars --out "$TMP/no-dir/model.bin" \
    "$TMP/corpus" > /dev/null 2> "$TMP/err3"; then
  fail "train with unwritable --out exited 0"
fi
grep -q "cannot write $TMP/no-dir/model.bin" "$TMP/err3" \
  || fail "train write error lacks the failing path: $(cat "$TMP/err3")"

# 4. eval over a corpus with nothing to predict: explicit n=0 note on
#    stdout, an explanatory error on stderr, and a nonzero exit — never
#    a fake "accuracy 0.0%".
echo 'function f() { return 1 + 2; }' > "$TMP/novars.js"
if "$PIGEON" eval --model "$TMP/model.bin" --lang js "$TMP/novars.js" \
    > "$TMP/out4" 2> "$TMP/err4"; then
  fail "eval with zero predictable elements exited 0"
fi
grep -q "accuracy n/a (n=0)" "$TMP/out4" \
  || fail "empty eval stdout lacks the n=0 note: $(cat "$TMP/out4")"
grep -q "no elements to evaluate" "$TMP/err4" \
  || fail "empty eval stderr lacks the explanation: $(cat "$TMP/err4")"

# 5. bundles of the retired formats: predict and serve name the version,
#    hint at retraining and exit 1, never crash. Each file is a header:
#    the little-endian magic 0x50494742 ("BGIP" on disk), the version,
#    then v2's lang/task/extraction bytes or v3's file size and settings.
printf 'BGIP\002\000\000\000\000\000\004\000\000\000\003\000\000\000\000\001' \
  > "$TMP/v2.bin"
printf 'BGIP\003\000\000\000\000\020\000\000\000\000\000\000\000\000\000\001\004\000\000\000\003\000\000\000\015\000\000\000' \
  > "$TMP/v3.bin"
for V in 2 3; do
  "$PIGEON" predict --model "$TMP/v$V.bin" "$TMP/a.js" > /dev/null \
    2> "$TMP/err5"
  RC=$?
  [ "$RC" = 1 ] || fail "predict on a v$V bundle exited $RC, not 1"
  grep -q "expected 4, found $V" "$TMP/err5" \
    || fail "predict on a v$V bundle lacks the version mismatch: $(cat "$TMP/err5")"
  grep -q "retrain" "$TMP/err5" \
    || fail "predict on a v$V bundle lacks the retrain hint: $(cat "$TMP/err5")"
  "$PIGEON" serve --model "$TMP/v$V.bin" --stdio < /dev/null > /dev/null \
    2> "$TMP/err5s"
  RC=$?
  [ "$RC" = 1 ] || fail "serve on a v$V bundle exited $RC, not 1"
  grep -q "expected 4, found $V" "$TMP/err5s" \
    || fail "serve on a v$V bundle lacks the version mismatch: $(cat "$TMP/err5s")"
  grep -q "retrain" "$TMP/err5s" \
    || fail "serve on a v$V bundle lacks the retrain hint: $(cat "$TMP/err5s")"
done

# 6. a bundle whose string arena (the first section, at byte 312) was
#    damaged in place: still well-formed, so predict serves it, but eval
#    verifies the trailer checksum and refuses it.
cp "$TMP/model.bin" "$TMP/damaged.bin"
printf '\001' | dd of="$TMP/damaged.bin" bs=1 seek=315 conv=notrunc 2> /dev/null
"$PIGEON" predict --model "$TMP/damaged.bin" "$TMP/a.js" > /dev/null 2>&1 \
  || fail "predict refused a structurally valid bundle"
if "$PIGEON" eval --model "$TMP/damaged.bin" --lang js "$TMP/corpus" \
    > /dev/null 2> "$TMP/err6"; then
  fail "eval accepted a bundle with a bad checksum"
fi
grep -q "checksum mismatch" "$TMP/err6" \
  || fail "eval error lacks the checksum diagnostic: $(cat "$TMP/err6")"

# 7. source nested past the parsers' budget: predict and extract exit 1
#    and name the limit, instead of overflowing the stack.
awk 'BEGIN { printf "function f(x) { return ";
             for (i = 0; i < 10000; i++) printf "(";
             printf "x";
             for (i = 0; i < 10000; i++) printf ")";
             print "; }" }' > "$TMP/deep.js"
"$PIGEON" predict --model "$TMP/model.bin" "$TMP/deep.js" > /dev/null \
  2> "$TMP/err7"
RC=$?
[ "$RC" = 1 ] || fail "predict on deep nesting exited $RC, not 1"
grep -q "nesting deeper than" "$TMP/err7" \
  || fail "predict on deep nesting lacks the reason: $(cat "$TMP/err7")"
"$PIGEON" extract --lang js "$TMP/deep.js" > /dev/null 2> "$TMP/err7e"
RC=$?
[ "$RC" = 1 ] || fail "extract on deep nesting exited $RC, not 1"
grep -q "nesting deeper than" "$TMP/err7e" \
  || fail "extract on deep nesting lacks the reason: $(cat "$TMP/err7e")"

# 8. eval takes its language from the bundle: --lang may be omitted, and
#    a --lang of another language exits 1 with the mismatch message the
#    artifact route prints, instead of scoring the model on sources of
#    another language.
"$PIGEON" eval --model "$TMP/model.bin" "$TMP/corpus" > "$TMP/out8" \
  2> "$TMP/err8" || fail "eval without --lang failed: $(cat "$TMP/err8")"
grep -q "^accuracy " "$TMP/out8" \
  || fail "eval without --lang printed no accuracy: $(cat "$TMP/out8")"
"$PIGEON" synth --lang java --out "$TMP/jcorpus" --projects 2 --seed 7 \
  > /dev/null 2>&1 || fail "java synth failed"
"$PIGEON" eval --model "$TMP/model.bin" --lang java "$TMP/jcorpus" \
  > "$TMP/out8j" 2> "$TMP/err8j"
RC=$?
[ "$RC" = 1 ] || fail "eval of a js model with --lang java exited $RC, not 1"
grep -q "language/task does not match the model" "$TMP/err8j" \
  || fail "eval with a foreign --lang lacks the mismatch: $(cat "$TMP/err8j")"
[ -s "$TMP/out8j" ] && fail "refused eval printed: $(cat "$TMP/out8j")"

# 9. a source the parser recovers from: predict still prints its table
#    and exits 0, and reports every diagnostic on stderr as extract does.
echo 'function f(x) { var total = x + ; return total; }' > "$TMP/bad.js"
"$PIGEON" predict --model "$TMP/model.bin" "$TMP/bad.js" > "$TMP/out9" \
  2> "$TMP/err9" || fail "predict on a recoverable parse exited nonzero"
grep -q "predictions for $TMP/bad.js" "$TMP/out9" \
  || fail "predict on a recoverable parse printed no table: $(cat "$TMP/out9")"
grep -q "bad.js:1:33: unexpected token ';' in expression" "$TMP/err9" \
  || fail "predict kept the parse diagnostic quiet: $(cat "$TMP/err9")"
"$PIGEON" extract --lang js "$TMP/bad.js" > /dev/null 2> "$TMP/err9e"
grep "unexpected token" "$TMP/err9e" > "$TMP/diag9e"
grep "unexpected token" "$TMP/err9" > "$TMP/diag9"
cmp -s "$TMP/diag9" "$TMP/diag9e" \
  || fail "predict and extract report different diagnostics"

echo "PASS"
