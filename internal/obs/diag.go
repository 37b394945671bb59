package obs

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"dagcover/internal/atomicfs"
)

// Slow-request capture: when a request breaches -slow-ms or the
// latency SLO, the service assembles a DiagBundle — the request's
// wide event, its Chrome trace spans, a full goroutine dump, and a
// fresh runtime sample — and the recorder publishes it into a
// size-budgeted directory through internal/atomicfs, as the artifact
// store publishes its objects: temp file on the same filesystem,
// fsync, atomic rename. A min-interval rate limiter and an LRU sweep
// keep a latency storm from melting the disk; everything the limiter
// or a write error drops is accounted in the dropped counter, so
// captures + dropped always equals capture attempts.

// DiagBundle is one self-contained diagnostics artifact, written as a
// single JSON file.
type DiagBundle struct {
	// CapturedAt is stamped by the recorder.
	CapturedAt time.Time `json:"captured_at"`
	// TraceID is the breaching request's trace id (also in the file
	// name, so a bundle can be found by grep or by name).
	TraceID string `json:"trace_id"`
	// Reason is "slow_request" (tripped -slow-ms) or "slo_violation"
	// (tripped the latency SLO).
	Reason string `json:"reason"`
	// Event is the request's wide event.
	Event WideEvent `json:"event"`
	// Runtime is a fresh runtime sample taken at capture time.
	Runtime RuntimeSample `json:"runtime"`
	// GoroutineDump is the full runtime.Stack(all=true) text.
	GoroutineDump string `json:"goroutine_dump"`
	// Trace is the request's Chrome trace_event JSON (the same format
	// the CLIs' -trace flag writes), when the request was traced.
	Trace json.RawMessage `json:"trace,omitempty"`
}

// DiagOptions tunes a DiagRecorder. The zero value is usable.
type DiagOptions struct {
	// MaxBytes is the LRU budget for the bundle directory; oldest
	// bundles are evicted past it. <= 0 means 64 MiB.
	MaxBytes int64
	// MinInterval is the minimum spacing between captures; attempts
	// inside it are dropped (counted, never queued). <= 0 disables
	// rate limiting.
	MinInterval time.Duration
}

// DiagRecorder publishes diagnostics bundles into one directory. Safe
// for concurrent use.
type DiagRecorder struct {
	dir string
	opt DiagOptions

	mu   sync.Mutex
	last time.Time // last successful capture (rate-limit clock)

	captures  atomic.Uint64
	dropped   atomic.Uint64
	evictions atomic.Uint64
}

// ErrDiagRateLimited reports a capture dropped by the rate limiter.
var ErrDiagRateLimited = fmt.Errorf("obs: diagnostics capture rate-limited")

// NewDiagRecorder creates (if needed) the bundle directory and its
// tmp subdirectory and returns the recorder.
func NewDiagRecorder(dir string, opt DiagOptions) (*DiagRecorder, error) {
	if opt.MaxBytes <= 0 {
		opt.MaxBytes = 64 << 20
	}
	if err := os.MkdirAll(filepath.Join(dir, "tmp"), 0o755); err != nil {
		return nil, fmt.Errorf("obs: diag dir: %w", err)
	}
	return &DiagRecorder{dir: dir, opt: opt}, nil
}

// Dir returns the bundle directory.
func (d *DiagRecorder) Dir() string { return d.dir }

// Counters returns capture/dropped/eviction totals.
func (d *DiagRecorder) Counters() (captures, dropped, evictions uint64) {
	return d.captures.Load(), d.dropped.Load(), d.evictions.Load()
}

// Capture publishes one bundle and returns its path. A rate-limited
// attempt returns ErrDiagRateLimited; any failure (including write
// errors) increments the dropped counter, so captures + dropped
// equals attempts.
func (d *DiagRecorder) Capture(b *DiagBundle) (string, error) {
	now := time.Now()
	d.mu.Lock()
	if d.opt.MinInterval > 0 && !d.last.IsZero() && now.Sub(d.last) < d.opt.MinInterval {
		d.mu.Unlock()
		d.dropped.Add(1)
		return "", ErrDiagRateLimited
	}
	d.last = now
	d.mu.Unlock()

	b.CapturedAt = now
	path, err := d.write(b, now)
	if err != nil {
		d.dropped.Add(1)
		return "", err
	}
	d.captures.Add(1)
	d.gc()
	return path, nil
}

// write publishes the bundle crash-safely (see atomicfs.Publish).
func (d *DiagRecorder) write(b *DiagBundle, now time.Time) (string, error) {
	blob, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return "", fmt.Errorf("obs: marshal bundle: %w", err)
	}
	final := filepath.Join(d.dir, fmt.Sprintf("%d-%s.json", now.UnixNano(), sanitizeID(b.TraceID)))
	if err := atomicfs.Publish(filepath.Join(d.dir, "tmp"), final, blob); err != nil {
		return "", err
	}
	return final, nil
}

// sanitizeID keeps file names safe whatever ends up in a trace id.
func sanitizeID(id string) string {
	out := make([]byte, 0, len(id))
	for i := 0; i < len(id) && i < 64; i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	if len(out) == 0 {
		return "unknown"
	}
	return string(out)
}

// bundles lists the resident bundles (tmp excluded).
func (d *DiagRecorder) bundles() []atomicfs.File {
	ents, err := os.ReadDir(d.dir)
	if err != nil {
		return nil
	}
	var files []atomicfs.File
	for _, e := range ents {
		if e.IsDir() {
			continue
		}
		if info, err := e.Info(); err == nil {
			files = append(files, atomicfs.File{Path: filepath.Join(d.dir, e.Name()), Size: info.Size(), MTime: info.ModTime()})
		}
	}
	return files
}

// gc evicts oldest bundles until the directory fits the budget and
// sweeps temp files abandoned by crashed writers.
func (d *DiagRecorder) gc() {
	d.evictions.Add(uint64(atomicfs.Evict(d.bundles(), d.opt.MaxBytes)))
	atomicfs.SweepTemp(filepath.Join(d.dir, "tmp"), time.Hour)
}

// GC runs one sweep immediately (tests, operators).
func (d *DiagRecorder) GC() { d.gc() }

// Usage returns the resident bundle count and bytes (tmp excluded).
func (d *DiagRecorder) Usage() (files int, bytes int64) {
	all := d.bundles()
	for _, f := range all {
		bytes += f.Size
	}
	return len(all), bytes
}

// MaxBytes returns the configured budget.
func (d *DiagRecorder) MaxBytes() int64 { return d.opt.MaxBytes }

// GoroutineDump returns the stacks of every goroutine, the same text
// net/http/pprof's goroutine?debug=2 serves. The buffer grows until
// the dump fits (capped at 64 MiB — enough for any sane process).
func GoroutineDump() string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			return string(buf[:n])
		}
		if len(buf) >= 64<<20 {
			return string(buf[:n])
		}
		buf = make([]byte, 2*len(buf))
	}
}
