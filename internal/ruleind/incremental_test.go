package ruleind

import (
	"testing"

	"dataaudit/internal/mlcore"
	"dataaudit/internal/mlcore/conform"
)

// Both rule inducers freeze the discretization bins inside the model, so
// their incremental contract is exactness *against a frozen-view
// retrain*: the Retrain override reuses the base model's FeatureView,
// mirroring what the warm re-induction path does in production.

// TestOneRIncrementalConformance: the 1R re-tally must reproduce a
// frozen-view retrain byte for byte.
func TestOneRIncrementalConformance(t *testing.T) {
	base, full := conform.Fixture(t, 400, 60, 40, 3)
	conform.Run(t, conform.Config{
		Trainer: &OneRTrainer{},
		Exact:   true,
		Retrain: func(model mlcore.Classifier, full *mlcore.Instances) (mlcore.Classifier, error) {
			return trainOneR(full, model.(*OneRModel).FV)
		},
	}, base, full)
}

// TestPrismIncrementalConformance: the warm covering rerun must
// reproduce a frozen-view retrain byte for byte.
func TestPrismIncrementalConformance(t *testing.T) {
	base, full := conform.Fixture(t, 400, 60, 40, 4)
	conform.Run(t, conform.Config{
		Trainer: &PrismTrainer{},
		Exact:   true,
		Retrain: func(model mlcore.Classifier, full *mlcore.Instances) (mlcore.Classifier, error) {
			return trainPrism(full, model.(*PrismModel).FV)
		},
	}, base, full)
}
