package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
)

// digests.json holds the sha256 of every mapped netlist the workloads
// emit, keyed "<input>|<library>|<mode>". Each digest was recorded
// (-record) only from an output that passed a full dagcover.Verify.
// Known failures lists the ops that failed when the digests were
// recorded, with their error text, for the report.
//
//go:embed digests.json
var digestsJSON []byte

type digestFile struct {
	Note          string            `json:"note"`
	Outputs       map[string]string `json:"outputs"`
	KnownFailures map[string]string `json:"known_failures"`
}

var (
	digestsOnce sync.Once
	digests     digestFile
	digestsErr  error
)

// expected returns the committed digest for key ("" when none).
func expected(key string) (string, error) {
	digestsOnce.Do(func() { digestsErr = json.Unmarshal(digestsJSON, &digests) })
	if digestsErr != nil {
		return "", fmt.Errorf("digests.json: %w", digestsErr)
	}
	return digests.Outputs[key], nil
}

// checkDigest compares an output's sha256 against the committed one.
// An output with no committed digest is accepted only when the caller
// verified it in full (verified); that is how an op that failed when
// the digests were recorded, and was later fixed, stays correct.
func checkDigest(key, sha string, verified bool) error {
	want, err := expected(key)
	if err != nil {
		return err
	}
	switch {
	case want == "" && verified:
		return nil
	case want == "":
		return fmt.Errorf("%s: no committed digest for an unverified output", key)
	case want != sha:
		return fmt.Errorf("%s: output sha256 %s, committed %s", key, sha[:16], want[:16])
	}
	return nil
}

func sha256Hex(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// recorder collects digests and failures in -record mode.
type recorder struct {
	file digestFile
}

func newRecorder() *recorder {
	return &recorder{file: digestFile{
		Note:          "sha256 of mapped BLIF per <input>|<library>|<mode>, recorded only from outputs that passed dagcover.Verify; regenerate with perfbench -record",
		Outputs:       map[string]string{},
		KnownFailures: map[string]string{},
	}}
}

func (r *recorder) output(key, sha string) { r.file.Outputs[key] = sha }

func (r *recorder) failure(key string, err error) { r.file.KnownFailures[key] = err.Error() }

// write saves the recording to path.
func (r *recorder) write(path string) error {
	doc, err := json.MarshalIndent(r.file, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(doc, '\n'), 0o644)
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
