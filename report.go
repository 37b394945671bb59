package dagcover

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"dagcover/internal/core"
)

// PhaseBreakdown is a mapping run broken down by pipeline phase, in
// milliseconds. For parallel labeling, LabelMillis sums the workers'
// per-chunk time (so it can exceed LabelWallMillis, and the ratio is
// the effective labeling speedup); serial runs have the two equal.
// VerifyMillis is the equivalence check's wall time when the caller
// ran one and booked it with MapReport.SetVerifyTime; the mapping
// engine leaves it zero. AreaMillis is always 0: area recovery's
// estimate DP runs inside labeling and counts as LabelMillis; the
// field and its area_ms key stay for readers of the JSON shape.
type PhaseBreakdown struct {
	LabelMillis     float64 `json:"label_ms"`
	LabelWallMillis float64 `json:"label_wall_ms"`
	AreaMillis      float64 `json:"area_ms"`
	CoverMillis     float64 `json:"cover_ms"`
	EmitMillis      float64 `json:"emit_ms"`
	VerifyMillis    float64 `json:"verify_ms,omitempty"`
	TotalMillis     float64 `json:"total_ms"`
}

func phaseMillis(d time.Duration) float64 {
	return float64(d.Nanoseconds()) / 1e6
}

// phaseBreakdown converts the core engine's phase durations.
func phaseBreakdown(p core.Phases) PhaseBreakdown {
	return PhaseBreakdown{
		LabelMillis:     phaseMillis(p.Label),
		LabelWallMillis: phaseMillis(p.LabelWall),
		CoverMillis:     phaseMillis(p.Cover),
		EmitMillis:      phaseMillis(p.Emit),
		TotalMillis:     phaseMillis(p.LabelWall + p.Cover + p.Emit),
	}
}

// treePhaseBreakdown maps tree covering's DP/emission split onto the
// shared shape: the DP is the covering phase, there is no separate
// labeling pass.
func treePhaseBreakdown(cover, emit time.Duration) PhaseBreakdown {
	return PhaseBreakdown{
		CoverMillis: phaseMillis(cover),
		EmitMillis:  phaseMillis(emit),
		TotalMillis: phaseMillis(cover + emit),
	}
}

// MapReport is the machine- and human-readable summary of one mapping
// run. techmap renders the same struct as text (-v) and as JSON
// (-stats-json), so the two views cannot drift.
type MapReport struct {
	Circuit           string  `json:"circuit"`
	Library           string  `json:"library"`
	Mode              string  `json:"mode"`
	DelayModel        string  `json:"delay_model"`
	SubjectNodes      int     `json:"subject_nodes"`
	SubjectSHA        string  `json:"subject_sha,omitempty"`
	Delay             float64 `json:"delay"`
	Area              float64 `json:"area"`
	Cells             int     `json:"cells"`
	DuplicatedNodes   int     `json:"duplicated_nodes"`
	LibraryGates      int     `json:"library_gates"`
	PatternsTried     int     `json:"patterns_tried"`
	MatchesEnumerated int     `json:"matches_enumerated"`
	MemoHits          int     `json:"memo_hits"`
	MemoMisses        int     `json:"memo_misses"`
	// MemoHitRate is hits/(hits+misses), 0 when the memo was off.
	MemoHitRate float64        `json:"memo_hit_rate"`
	MemoEntries int            `json:"memo_entries"`
	CPUMillis   float64        `json:"cpu_ms"`
	Phases      PhaseBreakdown `json:"phases"`
	// Verified is present only when verification ran.
	Verified *bool `json:"verified,omitempty"`
}

// NewMapReport assembles the report for one completed run.
func NewMapReport(circuit, mode, delayModel string, lib *Library, res *MapResult) *MapReport {
	return &MapReport{
		Circuit:           circuit,
		Library:           lib.Name,
		Mode:              mode,
		DelayModel:        delayModel,
		SubjectNodes:      res.SubjectNodes,
		SubjectSHA:        res.SubjectSHA,
		Delay:             res.Delay,
		Area:              res.Area,
		Cells:             res.Cells,
		DuplicatedNodes:   res.DuplicatedNodes,
		LibraryGates:      len(lib.Gates),
		PatternsTried:     res.PatternsTried,
		MatchesEnumerated: res.MatchesEnumerated,
		MemoHits:          res.MemoHits,
		MemoMisses:        res.MemoMisses,
		MemoHitRate:       memoHitRate(res.MemoHits, res.MemoMisses),
		MemoEntries:       res.MemoEntries,
		CPUMillis:         phaseMillis(res.CPU),
		Phases:            res.Phases,
	}
}

// memoHitRate is hits/(hits+misses) guarded against a zero total.
func memoHitRate(hits, misses int) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// SetVerified records a verification outcome on the report.
func (r *MapReport) SetVerified(ok bool) { r.Verified = &ok }

// SetVerifyTime books the equivalence check's wall time to the verify
// phase and to the phase total.
func (r *MapReport) SetVerifyTime(d time.Duration) {
	r.Phases.VerifyMillis = phaseMillis(d)
	r.Phases.TotalMillis += r.Phases.VerifyMillis
}

// WriteText renders the report for terminals. verbose additionally
// prints matcher statistics and the per-phase breakdown.
func (r *MapReport) WriteText(w io.Writer, verbose bool) {
	fmt.Fprintf(w, "%s: %s mapping with %s (%s delay)\n", r.Circuit, r.Mode, r.Library, r.DelayModel)
	fmt.Fprintf(w, "  subject nodes: %d\n", r.SubjectNodes)
	fmt.Fprintf(w, "  delay:         %.3f\n", r.Delay)
	fmt.Fprintf(w, "  area:          %.1f\n", r.Area)
	fmt.Fprintf(w, "  cells:         %d\n", r.Cells)
	if r.Mode == "dag" {
		fmt.Fprintf(w, "  duplicated:    %d subject nodes\n", r.DuplicatedNodes)
	}
	if verbose {
		if r.SubjectSHA != "" {
			fmt.Fprintf(w, "  subject sha:   %s\n", r.SubjectSHA)
		}
		fmt.Fprintf(w, "  library gates: %d\n", r.LibraryGates)
		fmt.Fprintf(w, "  patterns tried:     %d\n", r.PatternsTried)
		fmt.Fprintf(w, "  matches enumerated: %d\n", r.MatchesEnumerated)
		if r.MemoHits+r.MemoMisses > 0 {
			fmt.Fprintf(w, "  memo:               %d hits / %d misses (%.1f%% hit rate, %d entries)\n",
				r.MemoHits, r.MemoMisses, 100*r.MemoHitRate, r.MemoEntries)
		} else {
			fmt.Fprintf(w, "  memo:               off\n")
		}
		fmt.Fprintf(w, "  phases:        label %.2fms (wall %.2fms), cover %.2fms, emit %.2fms",
			r.Phases.LabelMillis, r.Phases.LabelWallMillis,
			r.Phases.CoverMillis, r.Phases.EmitMillis)
		if r.Verified != nil {
			fmt.Fprintf(w, ", verify %.2fms", r.Phases.VerifyMillis)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  cpu:           %.1fms\n", r.CPUMillis)
	if r.Verified != nil {
		if *r.Verified {
			fmt.Fprintln(w, "  verification:  equivalent")
		} else {
			fmt.Fprintln(w, "  verification:  FAILED")
		}
	}
}

// WriteJSON renders the report as indented JSON.
func (r *MapReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
