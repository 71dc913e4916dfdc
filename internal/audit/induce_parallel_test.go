package audit

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dataaudit/internal/audittree"
	"dataaudit/internal/mlcore"
	"dataaudit/internal/nbayes"
)

// classOf names the class attribute an Instances set was built for: with
// the default base sets it is the one column missing from Base.
func classOf(ins *mlcore.Instances) int {
	for c := 0; c < ins.Table.NumCols(); c++ {
		if !slices.Contains(ins.Base, c) {
			return c
		}
	}
	return -1
}

// failingTrainer fails Train for the listed class attributes, after the
// given delay, and trains naive Bayes for every other one. It counts its
// Train calls.
type failingTrainer struct {
	fail  map[int]time.Duration
	calls atomic.Int64
}

func (f *failingTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	f.calls.Add(1)
	class := classOf(ins)
	if delay, ok := f.fail[class]; ok {
		time.Sleep(delay)
		return nil, fmt.Errorf("boom on column %d", class)
	}
	return (&nbayes.Trainer{}).Train(ins)
}

// TestInduceReturnsLowestIndexedError: when several attributes fail, the
// error is the lowest-indexed attribute's, with the sequential text — even
// when a higher-indexed attribute fails first in time.
func TestInduceReturnsLowestIndexedError(t *testing.T) {
	tab := engineTable(t, 500, 5)
	want := "audit: attribute KBM: boom on column 1"
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			tr := &failingTrainer{fail: map[int]time.Duration{1: 30 * time.Millisecond, 3: 0}}
			_, err := Induce(tab, Options{Trainer: tr})
			if err == nil || err.Error() != want {
				t.Fatalf("got error %v, want %q", err, want)
			}
		})
	}
}

// TestReinducePanicReachesCaller: a c45-audit model whose warm-start hint
// names attribute 999 still decodes, and re-inducing it panics inside the
// tree grower on an induction goroutine. The panic must reach the
// goroutine that called ReinduceAttrs, with the worker's stack, at every
// GOMAXPROCS; before, it exited the process, auditd's monitor included.
func TestReinducePanicReachesCaller(t *testing.T) {
	tab := engineTable(t, 2000, 5)
	m, err := Induce(tab, Options{MinConfidence: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	rs, ok := m.Attrs[0].Classifier.(*audittree.RuleSet)
	if !ok || rs.Hint == nil {
		t.Fatalf("attribute 0 is a %T without a hint; the test needs a c45-audit rule set", m.Attrs[0].Classifier)
	}
	rs.Hint.Attr, rs.Hint.IsNumeric = 999, false
	b, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	bad, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("Unmarshal: %v; the test needs a model that decodes", err)
	}
	for _, procs := range []int{1, 2, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			v := func() (v any) {
				defer func() { v = recover() }()
				bad.ReinduceAttrs(tab, modelledAttrs(bad), ReinduceOptions{})
				return nil
			}()
			p, ok := v.(*workerPanic)
			if !ok {
				t.Fatalf("ReinduceAttrs recovered %v (%T), want a *workerPanic", v, v)
			}
			if msg := p.Error(); !strings.Contains(msg, "index out of range [999]") || !strings.Contains(msg, "nominalSplit") {
				t.Fatalf("the panic lacks the grower's index error or its stack:\n%s", msg)
			}
		})
	}
}

// TestReinduceAttrsRejectsBeforeTraining: an unmodelled, repeated or
// out-of-range attribute fails ReinduceAttrs before any classifier is
// trained, naming the attribute.
func TestReinduceAttrsRejectsBeforeTraining(t *testing.T) {
	tab := engineTable(t, 500, 5)
	tr := &failingTrainer{}
	m, err := Induce(tab, Options{Trainer: tr, SkipClasses: []string{"KBM"}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		attrs []int
		want  string
	}{
		{[]int{0, 1}, "audit: reinduce: attribute KBM is not modelled"},
		{[]int{0, 2, 0}, "audit: reinduce: attribute BRV listed twice"},
		{[]int{3, 4}, "audit: reinduce: attribute index 4 out of range"},
	} {
		for _, mode := range []ReinduceMode{ReinduceFull, ReinduceIncremental} {
			tr.calls.Store(0)
			_, err := m.ReinduceAttrs(tab, tc.attrs, ReinduceOptions{Mode: mode, Prev: tab})
			if err == nil || err.Error() != tc.want {
				t.Fatalf("%s %v: got error %v, want %q", mode, tc.attrs, err, tc.want)
			}
			if n := tr.calls.Load(); n != 0 {
				t.Fatalf("%s %v: %d Train calls before the rejection", mode, tc.attrs, n)
			}
		}
	}
}

// refusingClassifier is a naive Bayes model with an incremental path that
// always fails with err.
type refusingClassifier struct {
	mlcore.Classifier
	err error
}

func (c *refusingClassifier) Update(mlcore.Trainer, *mlcore.Instances) (mlcore.Classifier, error) {
	return nil, c.err
}

// refusingTrainer trains refusingClassifiers and counts its Train calls.
type refusingTrainer struct {
	err   error
	calls atomic.Int64
}

func (r *refusingTrainer) Train(ins *mlcore.Instances) (mlcore.Classifier, error) {
	r.calls.Add(1)
	clf, err := (&nbayes.Trainer{}).Train(ins)
	return &refusingClassifier{clf, r.err}, err
}

// TestReinduceUpdateErrors: an Update that refuses a trainer of another
// family falls back to a retrain with that trainer; any other Update
// error fails the re-induction instead of being papered over by one.
func TestReinduceUpdateErrors(t *testing.T) {
	tab := engineTable(t, 500, 5)
	boom := errors.New("boom")
	foreign := fmt.Errorf("refusing: %w", mlcore.ErrForeignTrainer)
	for _, tc := range []struct {
		name    string
		err     error
		wantErr error
	}{
		{"failure", boom, boom},
		{"foreign trainer", foreign, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := &refusingTrainer{err: tc.err}
			m, err := Induce(tab, Options{Trainer: tr})
			if err != nil {
				t.Fatal(err)
			}
			tr.calls.Store(0)
			_, err = m.ReinduceAttrs(tab, modelledAttrs(m), ReinduceOptions{})
			if !errors.Is(err, tc.wantErr) || (tc.wantErr == nil) != (err == nil) {
				t.Fatalf("got error %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr != nil {
				if n := tr.calls.Load(); n != 0 {
					t.Fatalf("%d retrains after a failed Update", n)
				}
			} else if n := tr.calls.Load(); n != int64(len(m.Attrs)) {
				t.Fatalf("%d retrains after refused Updates, want %d", n, len(m.Attrs))
			}
		})
	}
}
