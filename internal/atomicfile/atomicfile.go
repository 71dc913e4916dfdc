// Package atomicfile publishes a file so that a reader sees either the
// previous content or the complete new content, never a partial write:
// the bytes go into a temporary file in the target directory, which is
// then renamed over the target. Model files, registry meta sidecars and
// monitor state are all committed through Write, so it is also the one
// seam a fault-injecting filesystem has to replace. Write does not fsync:
// the guarantee covers concurrent readers and a crashed writer, not a
// power loss between the rename and the page cache reaching disk.
package atomicfile

import (
	"io"
	"os"
	"path/filepath"
)

// Write streams the output of write into a temporary sibling of path and
// renames it into place. On any error the target is left as it was and
// the temporary file is removed. The directory must exist.
func Write(path string, write func(io.Writer) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	// CreateTemp makes the file 0600; restore the permissions a plain
	// os.Create would have produced so other processes (e.g. a scoring
	// daemon under another user) can still read what was published.
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
