#!/bin/sh
# Checks that gfp-serve rejects bad --threads values while it parses its
# arguments: each run must exit 2 with a message naming the flag and
# its range.  No --unix or --tcp is passed, so no build of the tool
# can start a listener or a worker here.
#
# Usage: serve_flags.sh GFP_SERVE
set -u

status=0
for value in -1 257 4294967295 abc ''; do
    err=$("$1" --threads "$value" 2>&1 >/dev/null)
    code=$?
    case "$code:$err" in
      "2:--threads "*"0..256"*) ;;
      *)
        echo "--threads '$value': exit $code, stderr: $err" >&2
        status=1
        ;;
    esac
done
exit $status
