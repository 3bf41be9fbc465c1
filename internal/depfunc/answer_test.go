package depfunc

import (
	"math/rand"
	"strings"
	"testing"

	"github.com/blackbox-rt/modelgen/internal/lattice"
)

// referenceTable is the straightforward rendering Table must match
// byte for byte: every cell padded to the column width, each row's
// trailing spaces trimmed.
func referenceTable(d *DepFunc) string {
	n := d.ts.Len()
	colw := 6
	for _, name := range d.ts.names {
		if len(name)+2 > colw {
			colw = len(name) + 2
		}
	}
	var sb strings.Builder
	line := func(cells []string) {
		row := ""
		for _, c := range cells {
			row += c
			for k := len(c); k < colw; k++ {
				row += " "
			}
		}
		sb.WriteString(strings.TrimRight(row, " "))
		sb.WriteByte('\n')
	}
	line(append([]string{""}, d.ts.names...))
	cells := make([]string, n+1)
	for i := 0; i < n; i++ {
		cells[0] = d.ts.names[i]
		for j := 0; j < n; j++ {
			cells[j+1] = d.At(i, j).String()
		}
		line(cells)
	}
	return sb.String()
}

// randNames returns n distinct task names of random length, some
// longer than the 6-column minimum and some carrying spaces (a name
// may hold any bytes, so the trailing-space trim must not eat into a
// cell that is followed only by padding).
func randNames(r *rand.Rand, n int) []string {
	const alphabet = "abcxyz_ 0123"
	seen := map[string]bool{}
	names := make([]string, 0, n)
	for len(names) < n {
		b := make([]byte, 1+r.Intn(12))
		for i := range b {
			b[i] = alphabet[r.Intn(len(alphabet))]
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			names = append(names, s)
		}
	}
	return names
}

func TestTableMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for iter := 0; iter < 400; iter++ {
		ts := MustTaskSet(randNames(r, 1+r.Intn(20))...)
		d := randDep(r, ts)
		if got, want := d.Table(), referenceTable(d); got != want {
			t.Fatalf("tasks %q: Table differs from the reference\ngot:\n%s\nwant:\n%s", ts.names, got, want)
		}
	}
	// The case-study shape: short names, every value present.
	d := benchTable(18)
	if got, want := d.Table(), referenceTable(d); got != want {
		t.Fatalf("18-task table differs from the reference\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestCompareKeyMatchesKey pins CompareKey to the string order it
// replaces, over sizes whose n² crosses word boundaries (21 lanes per
// word: n=4 fits one word, n=5 spills into a second, n=15 fills 11).
func TestCompareKeyMatchesKey(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 5, 7, 11, 15, 18, 21} {
		ts := benchTaskSet(n)
		for iter := 0; iter < 300; iter++ {
			a := randDep(r, ts)
			b := a.Clone()
			// Mostly near neighbours, so the deciding lane lands
			// anywhere, including deep in later words.
			for k := r.Intn(3); k > 0 && n > 1; k-- {
				i, j := r.Intn(n), r.Intn(n)
				if i != j {
					b.Set(i, j, lattice.Value(r.Intn(7)))
				}
			}
			if iter%3 == 0 {
				b = randDep(r, ts)
			}
			want := strings.Compare(a.Key(), b.Key())
			if got := a.CompareKey(b); got != want {
				t.Fatalf("n=%d: CompareKey=%d, strings.Compare(Key)=%d\n%s\n%s", n, got, want, a.Key(), b.Key())
			}
			if got := b.CompareKey(a); got != -want {
				t.Fatalf("n=%d: reversed CompareKey=%d, want %d", n, got, -want)
			}
		}
	}
	// Different task-set sizes order as their Keys do.
	a, b := Bottom(benchTaskSet(3)), Top(benchTaskSet(4))
	if got, want := a.CompareKey(b), strings.Compare(a.Key(), b.Key()); got != want {
		t.Fatalf("mixed sizes: CompareKey=%d, want %d", got, want)
	}
}

func TestAnswerPathAllocs(t *testing.T) {
	d := benchTable(18)
	if allocs := testing.AllocsPerRun(50, func() { _ = d.Table() }); allocs > 1 {
		t.Errorf("Table allocates %.0f per call, want at most 1", allocs)
	}
	o := d.Clone()
	o.Set(17, 16, lattice.BiMaybe)
	var sink int
	if allocs := testing.AllocsPerRun(50, func() { sink += d.CompareKey(o) }); allocs != 0 {
		t.Errorf("CompareKey allocates %.0f per call, want 0", allocs)
	}
	_ = sink
}

// BenchmarkTable renders the 18-task case-study table, the per-
// hypothesis cost of every served model body.
func BenchmarkTable(b *testing.B) {
	d := benchTable(18)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(d.Table()) == 0 {
			b.Fatal("empty table")
		}
	}
}
