package atomicfs

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestPublishWritesWholeFileAndNoTemp(t *testing.T) {
	dir := t.TempDir()
	tmp := filepath.Join(dir, "tmp")
	if err := os.Mkdir(tmp, 0o755); err != nil {
		t.Fatal(err)
	}
	final := filepath.Join(dir, "obj")
	if err := Publish(tmp, final, []byte("head\n"), []byte("body")); err != nil {
		t.Fatal(err)
	}
	// Publishing again replaces the file whole.
	if err := Publish(tmp, final, []byte("v2")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(final)
	if err != nil || string(got) != "v2" {
		t.Fatalf("published file = %q, %v; want v2", got, err)
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("tmp dir holds %d leftovers", len(ents))
	}
	// A publish that cannot rename into place leaves no temp file.
	if err := Publish(tmp, filepath.Join(dir, "missing", "obj"), []byte("x")); err == nil {
		t.Fatal("publish into a missing directory succeeded")
	}
	if ents, _ := os.ReadDir(tmp); len(ents) != 0 {
		t.Fatalf("failed publish left %d temp files", len(ents))
	}
}

func TestEvictOldestFirstUntilWithinBudget(t *testing.T) {
	dir := t.TempDir()
	now := time.Now()
	var files []File
	for _, f := range []struct {
		name string
		age  time.Duration
	}{{"new", 0}, {"old", 2 * time.Hour}, {"mid", time.Hour}} {
		p := filepath.Join(dir, f.name)
		if err := os.WriteFile(p, make([]byte, 100), 0o644); err != nil {
			t.Fatal(err)
		}
		files = append(files, File{Path: p, Size: 100, MTime: now.Add(-f.age)})
	}
	if n := Evict(files, 300); n != 0 {
		t.Fatalf("evicted %d files within budget", n)
	}
	if n := Evict(files, 150); n != 2 {
		t.Fatalf("evicted %d files, want 2", n)
	}
	for name, want := range map[string]bool{"new": true, "mid": false, "old": false} {
		if _, err := os.Stat(filepath.Join(dir, name)); (err == nil) != want {
			t.Errorf("%s resident = %v, want %v", name, err == nil, want)
		}
	}
}

func TestSweepTempRemovesOnlyStaleFiles(t *testing.T) {
	dir := t.TempDir()
	stale, fresh := filepath.Join(dir, "stale"), filepath.Join(dir, "fresh")
	for _, p := range []string{stale, fresh} {
		if err := os.WriteFile(p, []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	old := time.Now().Add(-2 * time.Hour)
	if err := os.Chtimes(stale, old, old); err != nil {
		t.Fatal(err)
	}
	SweepTemp(dir, time.Hour)
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("stale temp file survived: %v", err)
	}
	if _, err := os.Stat(fresh); err != nil {
		t.Errorf("fresh temp file removed: %v", err)
	}
}
