package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strconv"

	"dagcover/internal/store"
)

// Whole-result cache keys and payloads. The mapper is deterministic —
// the same (subject graph, compiled library, options) triple always
// emits a byte-identical netlist — so a mapping *response* is a pure
// function of content-addressable inputs and can be cached whole. The
// pipeline (pipeline.go) looks results up and publishes them under the
// keys below.

// resultKind is the artifact-store object kind and key-format version
// for cached mapping results. Bumping it (mapres2, ...) rotates every
// key, which is how a change to response serialization or mapping
// semantics invalidates old entries: they are orphaned for the GC,
// never misread.
const resultKind = "mapres1"

// result_cache tiers reported in responses and wide events.
const (
	resultHitMem    = "hit-mem"
	resultHitDisk   = "hit-disk"
	resultMiss      = "miss"
	resultCoalesced = "coalesced"
)

// optionParts normalizes every request option that can change the
// response body into key components. Shared by resultKey and
// rawRequestKey so the two indexes can never disagree on what counts
// as "the same request". Memo and the server's parallelism are
// excluded from the *netlist* by determinism but memo changes the
// response's counter fields, so it is keyed; verify changes the
// Verified field (and whether verification ran), so it is keyed too.
func optionParts(req *MapRequest, mode string) []string {
	class := req.Class
	if class == "" {
		class = "standard"
	}
	delay := req.Delay
	if delay == "" {
		delay = "intrinsic"
	}
	memo := req.Memo == nil || *req.Memo
	return []string{
		mode,
		class,
		delay,
		fmt.Sprintf("ar=%t", req.AreaRecovery),
		fmt.Sprintf("rt=%g", req.RequiredTime),
		fmt.Sprintf("verify=%t", req.Verify),
		fmt.Sprintf("memo=%t", memo),
	}
}

// resultKey addresses one cached mapping result: subject-graph digest,
// library key, and the normalized options. This is the durable key —
// it survives restarts and is shared by replicas on one store volume.
func resultKey(digest, libKey, mode string, req *MapRequest) store.Key {
	return store.KeyOf(append([]string{resultKind, digest, libKey}, optionParts(req, mode)...)...)
}

// rawRequestKey addresses the in-memory lookaside: the hash of the raw
// BLIF bytes stands in for the subject digest, so a repeated request
// is recognized before any parsing happens. Distinct BLIF texts that
// canonicalize to the same subject graph get distinct raw keys but
// alias the same entry (linked on the slow path, where both keys are
// known). Process-local only: the canonical subject digest, not the
// accidental input formatting, is what may address durable objects.
func rawRequestKey(blifSHA, libKey, mode string, req *MapRequest) store.Key {
	return store.KeyOf(append([]string{"mapreq1", blifSHA, libKey}, optionParts(req, mode)...)...)
}

// encodeResultPayload serializes a response into its canonical cached
// form: serving metadata — elapsed time, trace id, cache tier, result
// digest, and the cache/store temperature flags, which depend on what
// this particular process had resident rather than on the result —
// zeroed or normalized; everything else (netlist, delay, cells, the
// engine counters of the run that produced it) verbatim. Two replicas
// computing the same result therefore publish byte-identical payloads.
// The returned SHA-256 of the payload is the response's result_sha,
// and equals the artifact store's object SHA for the same payload.
func encodeResultPayload(resp *MapResponse) ([]byte, string, error) {
	canon := *resp
	canon.ElapsedMillis = 0
	canon.TraceID = ""
	canon.ResultCache = ""
	canon.ResultSHA = ""
	canon.CacheHit = false
	if canon.SGStoreHit != nil {
		// Presence marks a supergate-with-store run; the value is
		// temperature. By the time a cached copy is replayed the artifact
		// is in the store, so normalize to true (cachedResponse asserts
		// the same on every hit).
		t := true
		canon.SGStoreHit = &t
	}
	payload, err := json.Marshal(&canon)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(payload)
	return payload, hex.EncodeToString(sum[:]), nil
}

// cachedResponse decodes a cached payload into the response it
// serves — encodeResultPayload's inverse plus the per-serving fields.
// The recorded run may have compiled the library or enumerated
// supergates; this serving did neither, so CacheHit is true by
// definition and SGStoreHit (documented as "enumeration was skipped,
// by this process or an earlier one") is true whenever the artifact
// exists. Engine counters are left as the recorded run's — they
// describe how the artifact was produced.
func cachedResponse(v rcView, tier string) (*MapResponse, error) {
	var resp MapResponse
	if err := json.Unmarshal(v.payload, &resp); err != nil {
		return nil, fmt.Errorf("decoding cached mapping result: %v", err)
	}
	resp.CacheHit = true
	if resp.SGStoreHit != nil {
		t := true
		resp.SGStoreHit = &t
	}
	resp.ResultCache, resp.ResultSHA = tier, v.sha
	return &resp, nil
}

// canonTail is the suffix every canonical payload ends with: elapsed_ms
// is the last non-omitempty MapResponse field and encodeResultPayload
// zeroes it, and every field after it is omitempty and zeroed.
// canonCacheHit is the one always-present field a cached serving must
// flip. Both are shape assumptions about our own encoder, checked at
// serve time — a payload that does not match (say, written to the
// store by a build with a different field layout) falls back to
// cachedResponse.
var (
	canonTail     = []byte(`"elapsed_ms":0}`)
	canonCacheHit = []byte(`,"cache_hit":false`)
)

// spliceCachedResponse turns a canonical payload into the wire
// response without decoding it: flip cache_hit and rewrite the tail
// with the real elapsed time and the serving-only fields. On a large
// netlist the JSON round trip costs tens of milliseconds; this is one
// copy. Searching for the raw `,"cache_hit":` bytes is sound because
// an unescaped quote cannot occur inside a JSON string value, so the
// first match is the field itself. The spliced serving-only members
// ride at the object's tail rather than in struct order — member
// order carries no meaning, and result_sha addresses the canonical
// form, not the wire form.
func spliceCachedResponse(payload []byte, elapsedMillis float64, traceID, tier, sha string) ([]byte, bool) {
	if !bytes.HasSuffix(payload, canonTail) {
		return nil, false
	}
	i := bytes.Index(payload, canonCacheHit)
	if i < 0 {
		return nil, false
	}
	body := payload[:len(payload)-len(canonTail)]
	out := make([]byte, 0, len(body)+len(traceID)+len(sha)+96)
	out = append(out, body[:i]...)
	out = append(out, `,"cache_hit":true`...)
	out = append(out, body[i+len(canonCacheHit):]...)
	out = append(out, `"result_cache":`...)
	out = strconv.AppendQuote(out, tier)
	out = append(out, `,"result_sha":`...)
	out = strconv.AppendQuote(out, sha)
	out = append(out, `,"elapsed_ms":`...)
	out = strconv.AppendFloat(out, elapsedMillis, 'g', -1, 64)
	if traceID != "" {
		out = append(out, `,"trace_id":`...)
		out = strconv.AppendQuote(out, traceID)
	}
	out = append(out, '}', '\n')
	return out, true
}
