package audittree_test

import (
	"testing"

	"dataaudit/internal/audittree"
	"dataaudit/internal/mlcore/conform"
)

// TestIncrementalConformance holds the rule-set Update (warm tree
// regrow + rule re-extraction) to the IncrementalClassifier contract:
// copy-on-write, deterministic, and prediction-agreeing with a cold
// retrain. Agreement is over matched rules only, so the tolerance is
// looser than the plain-tree families — a structural difference in one
// subtree can unmatch a block of rows.
func TestIncrementalConformance(t *testing.T) {
	base, full := conform.Fixture(t, 400, 60, 40, 8)
	conform.Run(t, conform.Config{
		Trainer:  &audittree.Trainer{Opts: audittree.Options{MinConfidence: 0.8, Filter: audittree.FilterReachableOnly}},
		MinAgree: 0.85,
	}, base, full)
}
