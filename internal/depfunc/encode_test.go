package depfunc

import "testing"

// TestDecodePackedCanonical: an encoding round-trips to an equal
// matrix with the same fingerprint, and the same bytes spelled with
// non-zero base64 padding bits are refused, so each matrix has exactly
// one accepted wire form.
func TestDecodePackedCanonical(t *testing.T) {
	d := MustParseTable("t1 t2 t3\nt1 || -> ||\nt2 <- || ->?\nt3 || <-? ||\n")
	enc := d.EncodePacked()
	back, err := DecodePacked(d.TaskSet(), enc)
	if err != nil {
		t.Fatal(err)
	}
	if !back.Equal(d) || back.Fingerprint() != d.Fingerprint() || back.EncodePacked() != enc {
		t.Fatalf("round trip changed the matrix:\n%s\nvs\n%s", back.Table(), d.Table())
	}
	if enc[len(enc)-1] != '=' || enc[len(enc)-2] == '=' {
		t.Fatalf("encoding %q does not end in one padding byte", enc)
	}
	// One '=' means the last character carries two unused low bits.
	last := []byte(enc)
	const alphabet = "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"
	for i := range alphabet {
		if alphabet[i] == last[len(last)-2] {
			last[len(last)-2] = alphabet[i|1]
			break
		}
	}
	if _, err := DecodePacked(d.TaskSet(), string(last)); err == nil {
		t.Fatalf("non-canonical encoding %q of %q accepted", last, enc)
	}
}
