package vecmath

import "testing"

func TestMatrixRowAliasing(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetRow(1, []float64{4, 5})
	row := m.Row(1)
	row[0] = 9
	if m.At(1, 0) != 9 {
		t.Fatal("Row must alias storage")
	}
	if m.At(1, 1) != 5 {
		t.Fatal("SetRow lost data")
	}
}

func TestMatrixRowFullSliceExpr(t *testing.T) {
	// Appending to a row view must not clobber the next row.
	m := NewMatrix(2, 2)
	m.SetRow(0, []float64{1, 2})
	m.SetRow(1, []float64{3, 4})
	row := m.Row(0)
	_ = append(row, 99)
	if m.At(1, 0) != 3 {
		t.Fatal("append through row view corrupted the next row")
	}
}

func TestMatrixCloneIndependent(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 0, 1)
	c := m.Clone()
	c.Set(0, 0, 42)
	if m.At(0, 0) != 1 {
		t.Fatal("clone shares storage")
	}
}

func TestMatrixCopyFrom(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	b.Set(1, 2, 7)
	a.CopyFrom(b)
	if a.At(1, 2) != 7 {
		t.Fatal("CopyFrom failed")
	}
}

func TestMatrixCopyFromShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewMatrix(2, 2).CopyFrom(NewMatrix(2, 3))
}

func TestMaxAbsDiffMatrix(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	b.Set(1, 1, -3)
	if got := MaxAbsDiffMatrix(a, b); got != 3 {
		t.Fatalf("MaxAbsDiffMatrix = %v", got)
	}
}

func TestMatrixZeroAll(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 5)
	m.ZeroAll()
	for _, v := range m.Data() {
		if v != 0 {
			t.Fatal("ZeroAll failed")
		}
	}
}

func TestSetRowWidthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic")
		}
	}()
	NewMatrix(1, 2).SetRow(0, []float64{1})
}

func TestMatrixColumnOps(t *testing.T) {
	m := NewMatrix(3, 2)
	m.SetColumn(1, []float64{1, 2, 3})
	col := m.Column(1)
	if len(col) != 3 || col[0] != 1 || col[2] != 3 {
		t.Fatalf("column %v", col)
	}
	col[0] = 99
	if m.At(0, 1) != 1 {
		t.Fatal("Column must return an owned copy")
	}
	if m.At(0, 0) != 0 {
		t.Fatal("SetColumn leaked into another column")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range column must panic")
		}
	}()
	m.Column(2)
}

func TestCompactColumns(t *testing.T) {
	// Every keep set of a 5×4 matrix: the compacted matrix must equal a
	// gather into fresh storage, with the old storage reused. Rows 1..4
	// write into spans that the previous rows' old values occupied, so a
	// pass that read an overwritten value would show here.
	const rows, cols = 5, 4
	for mask := 0; mask < 1<<cols; mask++ {
		var keep []int
		for j := 0; j < cols; j++ {
			if mask&(1<<j) != 0 {
				keep = append(keep, j)
			}
		}
		m := NewMatrix(rows, cols)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				m.Set(i, j, float64(10*i+j))
			}
		}
		base := &m.Data()[0]
		m.CompactColumns(keep)
		if m.Rows() != rows || m.Cols() != len(keep) || len(m.Data()) != rows*len(keep) {
			t.Fatalf("keep %v: shape %dx%d, %d values", keep, m.Rows(), m.Cols(), len(m.Data()))
		}
		for i := 0; i < rows; i++ {
			for k, j := range keep {
				if got, want := m.At(i, k), float64(10*i+j); got != want {
					t.Fatalf("keep %v: (%d,%d) = %v, want %v", keep, i, k, got, want)
				}
			}
		}
		if len(keep) > 0 && &m.Data()[0] != base {
			t.Fatalf("keep %v: compaction moved the storage", keep)
		}
	}
	for _, bad := range [][]int{{1, 1}, {2, 0}, {-1}, {4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("keep %v must panic", bad)
				}
			}()
			NewMatrix(2, 4).CompactColumns(bad)
		}()
	}
}

func TestNarrow(t *testing.T) {
	m := NewMatrix(3, 4)
	base := &m.Data()[0]
	m.Narrow(2)
	if m.Rows() != 3 || m.Cols() != 2 || len(m.Row(2)) != 2 || &m.Data()[0] != base {
		t.Fatalf("Narrow: shape %dx%d, storage moved %v", m.Rows(), m.Cols(), &m.Data()[0] != base)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("widening must panic")
		}
	}()
	m.Narrow(3)
}
