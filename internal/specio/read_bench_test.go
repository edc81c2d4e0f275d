package specio

import (
	"os"
	"path/filepath"
	"testing"
)

// BenchmarkRead parses shipped specs held in memory, as admission does
// with a request body: run it with -benchmem to see the allocations a
// parse makes, and compare MB/s across changes to the reader.
func BenchmarkRead(b *testing.B) {
	for _, name := range []string{"mul1", "mul9", "smartphone"} {
		data, err := os.ReadFile(filepath.Join("..", "..", "specs", name+".spec"))
		if err != nil {
			b.Fatal(err)
		}
		text := string(data)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(text)))
			for i := 0; i < b.N; i++ {
				if _, _, err := ReadWarnString(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestReadAllocs caps the allocations of one parse of mul9 just above
// what the reader makes: the system's own arrays and the task graphs'
// indexes, with the parser's working state reused from an earlier parse
// and the input parsed in place. A reader that allocates per line or per
// field again (a map or field slice for each line) exceeds it several
// times over.
func TestReadAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop parsers at random")
	}
	data, err := os.ReadFile(filepath.Join("..", "..", "specs", "mul9.spec"))
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	const ceiling = 77
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := ReadWarnString(text); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > ceiling {
		t.Fatalf("parsing mul9 makes %.0f allocations, more than the ceiling of %d", allocs, ceiling)
	}
}
