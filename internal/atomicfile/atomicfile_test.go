package atomicfile

import (
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestWrite pins both halves of the contract: a successful write replaces
// the target with world-readable content, and a failed one — the writer
// erroring after a partial write — leaves the previous content in place
// and no temporary file behind.
func TestWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	put := func(content string, fail error) error {
		return Write(path, func(w io.Writer) error {
			if _, err := io.WriteString(w, content); err != nil {
				return err
			}
			return fail
		})
	}
	if err := put("first", nil); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if err := put("half of the sec", boom); !errors.Is(err, boom) {
		t.Fatalf("writer error not returned: %v", err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "first" {
		t.Fatalf("failed write disturbed the target: %q, %v", got, err)
	}
	if err := put("second", nil); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	info, err := os.Stat(path)
	if err != nil || string(got) != "second" || info.Mode().Perm() != 0o644 {
		t.Fatalf("target after rewrite: %q, mode %v, %v", got, info.Mode().Perm(), err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil || len(ents) != 1 {
		t.Fatalf("temporary files left behind: %v, %v", ents, err)
	}
	if err := Write(filepath.Join(dir, "missing", "x"), func(io.Writer) error { return nil }); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
