// Package cli shares the observability, memo-store and failure-reporting
// plumbing of the tesa command-line tools: the telemetry and manifest
// flags, the -memo-dir flag, and the quarantine
// summary with its distinct exit code.
package cli

import (
	"fmt"
	"io"

	"tesa"
)

// ExitQuarantined is the exit code of a run that completed its search
// but quarantined at least one design point — distinct from success (0),
// errors (1), usage (2), and no-solution/disagreement (3), so chaos
// harnesses can tell "survived with losses" from everything else.
const ExitQuarantined = 4

// maxSummaryLines caps the per-point lines of a failure summary; large
// ledgers are truncated with a count.
const maxSummaryLines = 20

// FailureSummary prints the quarantine ledger, capped at
// maxSummaryLines entries. It prints nothing for an empty ledger.
func FailureSummary(w io.Writer, poisoned []tesa.QuarantinedPoint) {
	if len(poisoned) == 0 {
		return
	}
	fmt.Fprintf(w, "\nquarantined %d design point(s), skipped and recorded:\n", len(poisoned))
	for i, q := range poisoned {
		if i == maxSummaryLines {
			fmt.Fprintf(w, "  ... and %d more\n", len(poisoned)-maxSummaryLines)
			break
		}
		fmt.Fprintf(w, "  %s\n", q)
	}
}
