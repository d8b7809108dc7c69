package tax

import "testing"

// compareDomain mixes numbers, non-numbers and the values that broke
// the old comparator: "9" < "10" < "1a" < "9" was a cycle, and "NaN"
// compared equal to every number.
var compareDomain = []string{
	"9", "10", "1a", "NaN", "nan", "2", "b", "100", "", "-1", "1e1",
	"01", "1.0", "Inf", "-Inf", "1e400", " 1", "0x1p4", "a", "B", "10a",
}

func sign(c int) int {
	switch {
	case c < 0:
		return -1
	case c > 0:
		return 1
	}
	return 0
}

// TestCompareValuesTotalOrder checks that CompareValues is a total
// preorder on a mixed domain: reflexive, antisymmetric and transitive
// (for both < and ==), so every stable sort under it has one result.
func TestCompareValuesTotalOrder(t *testing.T) {
	for _, a := range compareDomain {
		if c := CompareValues(a, a); c != 0 {
			t.Errorf("CompareValues(%q, %q) = %d, want 0", a, a, c)
		}
		for _, b := range compareDomain {
			ab, ba := sign(CompareValues(a, b)), sign(CompareValues(b, a))
			if ab != -ba {
				t.Errorf("CompareValues(%q, %q) = %d but reversed %d", a, b, ab, ba)
			}
			for _, c := range compareDomain {
				bc, ac := sign(CompareValues(b, c)), sign(CompareValues(a, c))
				if ab <= 0 && bc <= 0 && ac > 0 {
					t.Errorf("not transitive: %q <= %q <= %q but %q > %q", a, b, c, a, c)
				}
				if ab == 0 && bc == 0 && ac != 0 {
					t.Errorf("equality not transitive: %q == %q == %q but %q != %q", a, b, c, a, c)
				}
			}
		}
	}
}

func TestCompareValuesOrder(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		want int
	}{
		// All-numeric values compare as numbers, all-text as bytes.
		{"9", "10", -1},
		{"1989", "2001", -1},
		{"1.0", "1", 0},
		{"-1", "01", -1},
		{"Querying XML", "XML and the Web", -1},
		{"B", "a", -1},
		// Numbers come before every non-number.
		{"10", "1a", -1},
		{"9", "1a", -1},
		{"", "-1", -1}, // a missing value comes first
		{"", "a", -1},
		{"2", "NaN", -1},
		{"1e400", "1", 1}, // out of float range: not a number
		{"NaN", "b", -1},
	} {
		if got := sign(CompareValues(tc.a, tc.b)); got != tc.want {
			t.Errorf("CompareValues(%q, %q) = %d, want %d", tc.a, tc.b, got, tc.want)
		}
	}
}
