// Command promcheck validates a Prometheus text exposition read from
// stdin (or a file argument) against the obs package's format oracle —
// HELP/TYPE ordering, label escaping, histogram bucket shape and
// deterministic series ordering — and exits non-zero on the first
// violation. scripts/e2e_metrics.sh pipes a live /metrics scrape
// through it so the CI e2e job fails on a malformed exposition, not
// just on a missing series:
//
//	curl -fsS localhost:8080/metrics | go run ./cmd/promcheck
//
// It is a binary of its own because that script is its caller: folded
// into another command it would be the same lines behind one more flag.
package main

import (
	"fmt"
	"io"
	"os"

	"dataaudit/internal/obs"
)

func main() {
	var in io.Reader = os.Stdin
	if len(os.Args) > 1 {
		f, err := os.Open(os.Args[1])
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		in = f
	}
	if err := obs.ValidateExposition(in); err != nil {
		fail("%v", err)
	}
	fmt.Fprintln(os.Stderr, "promcheck: exposition well-formed")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "promcheck: "+format+"\n", args...)
	os.Exit(1)
}
