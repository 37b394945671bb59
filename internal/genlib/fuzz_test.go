package genlib_test

import (
	"bytes"
	"testing"

	"dagcover/internal/genlib"
	"dagcover/internal/libgen"
)

// FuzzGenlibParse feeds arbitrary text to the genlib parser. It must
// never panic, and a library it accepts must round-trip: writing it,
// parsing that text and writing again reproduces the first text byte
// for byte. Seeded with the written form of the built-in libraries.
func FuzzGenlibParse(f *testing.F) {
	for _, lib := range []*genlib.Library{libgen.Lib2(), libgen.Lib441(), libgen.Lib443()} {
		var buf bytes.Buffer
		if err := genlib.Write(&buf, lib); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.String())
	}
	f.Fuzz(func(t *testing.T, text string) {
		if len(text) > 1<<17 {
			return
		}
		lib, err := genlib.ParseString("fuzz", text)
		if err != nil {
			return
		}
		var first bytes.Buffer
		if err := genlib.Write(&first, lib); err != nil {
			t.Fatal(err)
		}
		again, err := genlib.ParseString("fuzz", first.String())
		if err != nil {
			t.Fatalf("written library does not parse: %v\n%s", err, first.String())
		}
		var second bytes.Buffer
		if err := genlib.Write(&second, again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first.Bytes(), second.Bytes()) {
			t.Fatalf("round trip changed the library text:\nfirst:\n%s\nsecond:\n%s", first.String(), second.String())
		}
	})
}
