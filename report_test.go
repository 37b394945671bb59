package dagcover

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"dagcover/internal/bench"
	"dagcover/internal/obs"
)

// TestTraceExportValidChromeTrace drives the -trace pipeline the CLIs
// use — NewTrace through MapDAG/MapTree/MapLUTTraced, exported with
// WriteChromeTrace — and validates the JSON against the trace_event
// schema (what chrome://tracing and Perfetto accept).
func TestTraceExportValidChromeTrace(t *testing.T) {
	nw := bench.RippleAdder(16)
	mapper, err := NewMapper(Lib443())
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTrace()
	if _, err := mapper.MapDAG(nw, &MapOptions{Delay: UnitDelay, Trace: tr, Parallelism: 4}); err != nil {
		t.Fatal(err)
	}
	if _, err := mapper.MapTree(nw, &MapOptions{Delay: UnitDelay, Trace: tr}); err != nil {
		t.Fatal(err)
	}
	if _, err := MapLUTTraced(context.Background(), nw, 4, tr); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if err := obs.ValidateChromeTrace(buf.Bytes()); err != nil {
		t.Fatalf("exported trace is not valid trace_event JSON: %v\n%s", err, buf.String())
	}
	out := buf.String()
	for _, span := range []string{"core.label", "core.cover", "core.emit", "treemap.dp", "flowmap.label"} {
		if !strings.Contains(out, `"name":"`+span+`"`) {
			t.Errorf("trace missing span %q", span)
		}
	}
}

// TestMapReportTextAndJSONAgree pins the shared-report contract: the
// -v text rendering and the -stats-json rendering come from one
// MapReport, so every figure in the text must round-trip through the
// JSON unchanged.
func TestMapReportTextAndJSONAgree(t *testing.T) {
	nw := bench.RippleAdder(16)
	mapper, err := NewMapper(Lib443())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.MapDAG(nw, &MapOptions{Delay: UnitDelay})
	if err != nil {
		t.Fatal(err)
	}
	report := NewMapReport(nw.Name, "dag", "unit", Lib443(), res)
	report.SetVerified(true)

	var jsonBuf bytes.Buffer
	if err := report.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded MapReport
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Cells != res.Cells || decoded.Delay != res.Delay ||
		decoded.PatternsTried != res.PatternsTried ||
		decoded.DuplicatedNodes != res.DuplicatedNodes {
		t.Errorf("JSON report diverges from the result: %+v vs %+v", decoded, res)
	}
	if decoded.Phases != res.Phases {
		t.Errorf("JSON phases %+v != result phases %+v", decoded.Phases, res.Phases)
	}
	if decoded.Verified == nil || !*decoded.Verified {
		t.Error("verified flag lost in JSON round-trip")
	}

	var textBuf bytes.Buffer
	report.WriteText(&textBuf, true)
	text := textBuf.String()
	for _, want := range []string{
		fmt.Sprintf("cells:         %d", res.Cells),
		fmt.Sprintf("delay:         %.3f", res.Delay),
		fmt.Sprintf("patterns tried:     %d", res.PatternsTried),
		"verification:  equivalent",
		"phases:",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("text report missing %q:\n%s", want, text)
		}
	}
	if res.Phases.LabelMillis <= 0 || res.Phases.TotalMillis <= 0 {
		t.Errorf("phase breakdown not filled: %+v", res.Phases)
	}
}

// TestTreePhaseBreakdown checks tree covering reports its DP/emission
// split through the same PhaseBreakdown shape.
func TestTreePhaseBreakdown(t *testing.T) {
	mapper, err := NewMapper(Lib2())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.MapTree(bench.RippleAdder(16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Phases.CoverMillis <= 0 || res.Phases.TotalMillis <= 0 {
		t.Errorf("tree phases not filled: %+v", res.Phases)
	}
	if res.Phases.LabelMillis != 0 {
		t.Errorf("tree covering has no labeling pass, got label %v ms", res.Phases.LabelMillis)
	}
}

// TestMapReportVerifyPhase checks that a verification booked with
// SetVerifyTime reaches both renderings: verify_ms in the JSON (and in
// total_ms), "verify" on the text phases line. A report without a
// verification carries neither.
func TestMapReportVerifyPhase(t *testing.T) {
	nw := bench.RippleAdder(8)
	mapper, err := NewMapper(Lib2())
	if err != nil {
		t.Fatal(err)
	}
	res, err := mapper.MapDAG(nw, nil)
	if err != nil {
		t.Fatal(err)
	}
	plain := NewMapReport(nw.Name, "dag", "intrinsic", Lib2(), res)
	var buf bytes.Buffer
	if err := plain.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "verify_ms") {
		t.Errorf("unverified report carries verify_ms:\n%s", buf.String())
	}
	buf.Reset()
	plain.WriteText(&buf, true)
	if strings.Contains(buf.String(), "verify") {
		t.Errorf("unverified text report mentions verify:\n%s", buf.String())
	}

	report := NewMapReport(nw.Name, "dag", "intrinsic", Lib2(), res)
	report.SetVerifyTime(1500 * time.Microsecond)
	report.SetVerified(true)
	buf.Reset()
	if err := report.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var decoded MapReport
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatal(err)
	}
	if decoded.Phases.VerifyMillis != 1.5 {
		t.Errorf("verify_ms = %v, want 1.5", decoded.Phases.VerifyMillis)
	}
	if got, want := decoded.Phases.TotalMillis, res.Phases.TotalMillis+1.5; got != want {
		t.Errorf("total_ms = %v, want mapping total + verify = %v", got, want)
	}
	buf.Reset()
	report.WriteText(&buf, true)
	if !strings.Contains(buf.String(), ", verify 1.50ms") {
		t.Errorf("text phases line lacks the verify phase:\n%s", buf.String())
	}
}
