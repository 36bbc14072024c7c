package exp

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// quickRunAll pins the rendered output of every experiment under
// QuickOptions: its byte length and SHA-256. Any change to population
// generation, trial streams or rendering shows up here.
const (
	quickRunAllBytes  = 16124
	quickRunAllSHA256 = "cad66a20decd4fcc5521fca643c1c4a37a1e445f328429717dd4668f8d2d9e65"
)

func TestQuickRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip()
	}
	for _, par := range []int{1, 3} {
		opts := QuickOptions()
		opts.Parallelism = par
		var buf bytes.Buffer
		if err := NewEngine(opts).RunAll(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		if got := hex.EncodeToString(sum[:]); buf.Len() != quickRunAllBytes || got != quickRunAllSHA256 {
			t.Errorf("parallelism %d: RunAll output is %d bytes with sha256 %s, want %d bytes with %s:\n%s",
				par, buf.Len(), got, quickRunAllBytes, quickRunAllSHA256, buf.String())
		}
	}
}
