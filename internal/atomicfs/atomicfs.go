// Package atomicfs publishes files crash-safely and keeps a directory
// of published files within a byte budget. The artifact store's
// objects and the diagnostics recorder's bundles both go through it.
package atomicfs

import (
	"os"
	"path/filepath"
	"sort"
	"time"
)

// Publish writes the concatenated parts to final through a temp file
// in tmpDir, which must be on final's filesystem so the rename is
// atomic: write, fsync, close, rename, then fsync final's directory so
// the rename itself survives a crash. A crash never leaves a partially
// visible file, and a failed publish leaves no temp file behind.
func Publish(tmpDir, final string, parts ...[]byte) error {
	tmp, err := os.CreateTemp(tmpDir, filepath.Base(final)+"-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	for _, p := range parts {
		if _, err := tmp.Write(p); err != nil {
			tmp.Close()
			return err
		}
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), final); err != nil {
		return err
	}
	// Best-effort: some filesystems refuse directory fsync.
	if d, err := os.Open(filepath.Dir(final)); err == nil {
		_ = d.Sync()
		d.Close()
	}
	return nil
}

// File is one resident file seen by a budget sweep.
type File struct {
	Path  string
	Size  int64
	MTime time.Time
}

// Evict removes files, least recently modified first, until the rest
// fit maxBytes, and returns how many it removed. A file that is
// already gone counts as removed, so concurrent sweeps — by other
// processes too — are harmless.
func Evict(files []File, maxBytes int64) int {
	var total int64
	for _, f := range files {
		total += f.Size
	}
	if total <= maxBytes {
		return 0
	}
	sort.Slice(files, func(i, j int) bool { return files[i].MTime.Before(files[j].MTime) })
	evicted := 0
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(f.Path); err == nil || os.IsNotExist(err) {
			total -= f.Size
			evicted++
		}
	}
	return evicted
}

// SweepTemp removes the files in dir last modified more than maxAge
// ago: temp files of writers that crashed mid-publish.
func SweepTemp(dir string, maxAge time.Duration) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	cutoff := time.Now().Add(-maxAge)
	for _, e := range ents {
		if info, err := e.Info(); err == nil && !info.IsDir() && info.ModTime().Before(cutoff) {
			_ = os.Remove(filepath.Join(dir, e.Name()))
		}
	}
}
