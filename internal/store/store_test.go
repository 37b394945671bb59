package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKeyOfPartitioning(t *testing.T) {
	if KeyOf("ab", "c") == KeyOf("a", "bc") {
		t.Fatal("KeyOf must length-prefix parts: (ab,c) and (a,bc) collided")
	}
	if KeyOf("x") != KeyOf("x") {
		t.Fatal("KeyOf not deterministic")
	}
	if len(KeyOf()) != 64 {
		t.Fatalf("key is not a hex sha256: %q", KeyOf())
	}
}

func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGetOrCreateRoundTrip(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := KeyOf("test", "v1")
	gens := 0
	gen := func() ([]byte, map[string]string, error) {
		gens++
		return []byte("payload-bytes"), map[string]string{"note": "meta survives"}, nil
	}

	e, err := s.GetOrCreate("genlib", key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if e.Hit || string(e.Data) != "payload-bytes" || gens != 1 {
		t.Fatalf("first call: hit=%v data=%q gens=%d", e.Hit, e.Data, gens)
	}
	e2, err := s.GetOrCreate("genlib", key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !e2.Hit || string(e2.Data) != "payload-bytes" || gens != 1 {
		t.Fatalf("second call: hit=%v data=%q gens=%d", e2.Hit, e2.Data, gens)
	}
	if e2.SHA != e.SHA || e2.Meta["note"] != "meta survives" {
		t.Fatalf("identity/meta did not round-trip: %+v vs %+v", e2, e)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 || st.Objects != 1 {
		t.Fatalf("stats: %+v", st)
	}
	if st.Quarantined != 0 || st.WriteErrors != 0 {
		t.Fatalf("unexpected failures in stats: %+v", st)
	}

	// A second Store on the same directory (another "process") hits too.
	s2 := mustOpen(t, s.Dir())
	e3, err := s2.GetOrCreate("genlib", key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if !e3.Hit || gens != 1 || e3.SHA != e.SHA {
		t.Fatalf("cross-instance: hit=%v gens=%d", e3.Hit, gens)
	}
}

func TestDistinctKindsDoNotAlias(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := KeyOf("same")
	a, _ := s.GetOrCreate("kind-a", key, func() ([]byte, map[string]string, error) {
		return []byte("aaa"), nil, nil
	})
	b, _ := s.GetOrCreate("kind-b", key, func() ([]byte, map[string]string, error) {
		return []byte("bbb"), nil, nil
	})
	if a.Hit || b.Hit || string(b.Data) != "bbb" {
		t.Fatalf("kinds aliased: %+v %+v", a, b)
	}
}

// objectFile finds the single object file on disk.
func objectFile(t *testing.T, s *Store) string {
	t.Helper()
	objs := s.walkObjects()
	if len(objs) != 1 {
		t.Fatalf("want exactly 1 object, have %d", len(objs))
	}
	return objs[0].Path
}

// corrupt writes a store object, mangles it with mangle, and asserts
// a fresh Store quarantines the bad bytes and regenerates.
func corrupt(t *testing.T, mangle func(path string, raw []byte)) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := KeyOf("corruption")
	payload := []byte("the artifact payload that must never be silently wrong")
	gen := func() ([]byte, map[string]string, error) { return payload, nil, nil }
	if _, err := s.GetOrCreate("genlib", key, gen); err != nil {
		t.Fatal(err)
	}
	path := objectFile(t, s)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	mangle(path, raw)

	// A fresh instance (fresh process) must detect, quarantine, regen.
	s2 := mustOpen(t, dir)
	e, err := s2.GetOrCreate("genlib", key, gen)
	if err != nil {
		t.Fatal(err)
	}
	if e.Hit {
		t.Fatal("corrupt object served as a hit")
	}
	if !bytes.Equal(e.Data, payload) {
		t.Fatalf("regenerated data wrong: %q", e.Data)
	}
	st := s2.Stats()
	if st.Quarantined == 0 {
		t.Fatalf("corruption not quarantined: %+v", st)
	}
	qents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(qents) == 0 {
		t.Fatalf("quarantine dir empty (err=%v)", err)
	}
	// The regenerated object verifies on the next read.
	e2, err := s2.GetOrCreate("genlib", key, gen)
	if err != nil || !e2.Hit || !bytes.Equal(e2.Data, payload) {
		t.Fatalf("regenerated object did not round-trip: hit=%v err=%v", e2.Hit, err)
	}
}

func TestCorruptTruncated(t *testing.T) {
	corrupt(t, func(path string, raw []byte) {
		if err := os.WriteFile(path, raw[:len(raw)/2], 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptBitFlip(t *testing.T) {
	corrupt(t, func(path string, raw []byte) {
		raw[len(raw)-3] ^= 0x40 // flip a payload bit; header sha now disagrees
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptHeaderGarbage(t *testing.T) {
	corrupt(t, func(path string, raw []byte) {
		if err := os.WriteFile(path, []byte("not a store object at all"), 0o644); err != nil {
			t.Fatal(err)
		}
	})
}

func TestCorruptWrongName(t *testing.T) {
	// A valid object renamed under another key's name must not be
	// served for that key (the header pins the key).
	dir := t.TempDir()
	s := mustOpen(t, dir)
	keyA, keyB := KeyOf("a"), KeyOf("b")
	if _, err := s.GetOrCreate("genlib", keyA, func() ([]byte, map[string]string, error) {
		return []byte("A"), nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	src := s.objectPath("genlib", keyA)
	dst := s.objectPath("genlib", keyB)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := mustOpen(t, dir).Get("genlib", keyB); ok {
		t.Fatal("object with mismatched header key was served")
	}
}

func TestConcurrentSingleFlight(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := KeyOf("flight")
	var gens atomic.Int32
	gen := func() ([]byte, map[string]string, error) {
		gens.Add(1)
		time.Sleep(20 * time.Millisecond) // widen the race window
		return []byte("once"), nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e, err := s.GetOrCreate("genlib", key, gen)
			if err != nil || string(e.Data) != "once" {
				t.Errorf("GetOrCreate: %v %q", err, e.Data)
			}
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times, want 1", n)
	}
}

func TestCrossInstanceSingleFlight(t *testing.T) {
	// Two Store instances on one directory stand in for two processes:
	// the advisory file lock plus the post-lock re-check must keep
	// generation to one run even when both race.
	dir := t.TempDir()
	key := KeyOf("xproc")
	var gens atomic.Int32
	gen := func() ([]byte, map[string]string, error) {
		gens.Add(1)
		time.Sleep(20 * time.Millisecond)
		return []byte("once"), nil, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		st := mustOpen(t, dir)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if e, err := st.GetOrCreate("genlib", key, gen); err != nil || string(e.Data) != "once" {
				t.Errorf("GetOrCreate: %v %q", err, e.Data)
			}
		}()
	}
	wg.Wait()
	if n := gens.Load(); n != 1 {
		t.Fatalf("generator ran %d times across instances, want 1", n)
	}
}

func TestGenerationErrorNotCached(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	key := KeyOf("flaky")
	calls := 0
	_, err := s.GetOrCreate("genlib", key, func() ([]byte, map[string]string, error) {
		calls++
		return nil, nil, fmt.Errorf("transient")
	})
	if err == nil {
		t.Fatal("error swallowed")
	}
	e, err := s.GetOrCreate("genlib", key, func() ([]byte, map[string]string, error) {
		calls++
		return []byte("ok"), nil, nil
	})
	if err != nil || e.Hit || string(e.Data) != "ok" || calls != 2 {
		t.Fatalf("retry after failure: err=%v hit=%v calls=%d", err, e.Hit, calls)
	}
}

func TestLRUGC(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxBytes: 3 * 1100}) // room for ~3 1KB objects
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 1024)
	keys := make([]Key, 6)
	for i := range keys {
		keys[i] = KeyOf("gc", fmt.Sprint(i))
		if _, err := s.GetOrCreate("genlib", keys[i], func() ([]byte, map[string]string, error) {
			return payload, nil, nil
		}); err != nil {
			t.Fatal(err)
		}
		// Backdate older objects so LRU order is unambiguous regardless
		// of filesystem timestamp granularity.
		old := time.Now().Add(-time.Duration(len(keys)-i) * time.Hour)
		_ = os.Chtimes(s.objectPath("genlib", keys[i]), old, old)
	}
	s.GC()
	st := s.Stats()
	if st.Bytes > 3*1100 {
		t.Fatalf("GC left %d bytes over the %d budget", st.Bytes, 3*1100)
	}
	if st.Evictions == 0 {
		t.Fatalf("no evictions recorded: %+v", st)
	}
	// The most recently written objects survive; the oldest are gone.
	if _, ok := s.Get("genlib", keys[len(keys)-1]); !ok {
		t.Fatal("newest object evicted")
	}
	if _, ok := s.Get("genlib", keys[0]); ok {
		t.Fatal("oldest object survived a GC that evicted")
	}
}

func TestNoTempLeftovers(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	for i := 0; i < 4; i++ {
		if _, err := s.GetOrCreate("genlib", KeyOf("t", fmt.Sprint(i)), func() ([]byte, map[string]string, error) {
			return []byte("data"), nil, nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	ents, err := os.ReadDir(filepath.Join(s.Dir(), "tmp"))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("tmp dir holds %d leftovers", len(ents))
	}
}

func TestPutThenGet(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	key := KeyOf("put", "v1")
	data := []byte("cached result payload")
	if err := s.Put("mapres1", key, data, 12.5, map[string]string{"circuit": "c17"}); err != nil {
		t.Fatal(err)
	}
	e, ok := s.Get("mapres1", key)
	if !ok {
		t.Fatal("Put object not found by Get")
	}
	if !bytes.Equal(e.Data, data) {
		t.Errorf("payload mismatch: %q", e.Data)
	}
	if e.GenMillis != 12.5 {
		t.Errorf("gen millis %v, want 12.5", e.GenMillis)
	}
	if e.Meta["circuit"] != "c17" {
		t.Errorf("meta lost: %v", e.Meta)
	}
	st := s.Stats()
	if st.Writes != 1 || st.Hits != 1 {
		t.Errorf("writes=%d hits=%d, want 1/1", st.Writes, st.Hits)
	}
	// A second store instance on the same directory sees the object —
	// the warm-restart property the result cache relies on.
	s2 := mustOpen(t, dir)
	if e2, ok := s2.Get("mapres1", key); !ok || !bytes.Equal(e2.Data, data) || e2.SHA != e.SHA {
		t.Error("restarted store does not serve the Put object")
	}
}
