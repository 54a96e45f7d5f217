package expt

// Engine-name label columns (FormatDiffusion builds derived labels like
// "parallel(cols)") go through labelCell, which clips them at one width
// with one ellipsis convention.
const labelWidth = 18

// labelCell clips a row label to labelWidth runes, marking the cut with a
// trailing ellipsis. Labels at or under the width pass through unchanged,
// so the standard engine names are never altered.
func labelCell(s string) string {
	r := []rune(s)
	if len(r) <= labelWidth {
		return s
	}
	return string(r[:labelWidth-1]) + "…"
}
