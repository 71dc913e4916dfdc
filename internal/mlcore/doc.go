// Package mlcore is the shared classifier framework of the multiple
// classification / regression approach (§5): training instances over a
// dataset.Table, class distributions with explicit support, and the
// Classifier/Trainer interfaces every induction algorithm in this
// repository implements (C4.5, the audit-adjusted tree, naive Bayes, kNN,
// 1R, PRISM).
//
// The paper's error-confidence measure (Def. 7) "can be used with each
// classifier that both outputs a predicted class distribution and the
// number of training instances this prediction is based on"; Distribution
// carries exactly those two pieces of information — per-class weighted
// counts plus their total — so any Classifier plugged into the audit tool
// automatically supports confidence-ranked deviation reports.
//
// The three building blocks:
//
//   - Distribution: a weighted class histogram. P(c) gives the predicted
//     probability, N() the supporting sample size (the n of Def. 7), and
//     Best() the deterministic argmax (ties break to the lower index,
//     matching C4.5).
//   - Instances: a table and a class vector for supervised induction.
//     Every row trains with weight 1; a tree inducer keeps its own row and
//     weight lists for C4.5's fractional missing-value handling. Its
//     optional RankCache orders each numeric column of the table once for
//     all the classifiers of one induction call, and a nominal column's
//     code vector there doubles as that attribute's class vector.
//   - Classifier / Trainer: each has one method. PredictInto writes a
//     row's Distribution into a caller-owned buffer without allocating;
//     Train induces a Classifier from Instances. audit.Options.Trainer
//     accepts any Trainer, which is how the §5.4 ablation experiments mix
//     and match individual algorithm adjustments.
//
// Everything in this package is deterministic: given the same instances,
// every Trainer in the repository induces the same classifier, and
// PredictInto is a pure function of the row — the property the parallel
// and streaming audit paths (audit.AuditTableParallel, audit.AuditStream)
// rely on to produce byte-identical reports under any scheduling.
package mlcore
