package workload

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"histcube/internal/dims"
)

// WriteCSV streams the dataset as CSV: a header line with the
// geometry, then one line per update "time,c1,...,cd,delta".
func (d *Dataset) WriteCSV(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "# name=%s slice=%s time=%d\n", d.Name, shapeString(d.SliceShape), d.TimeSize); err != nil {
		return err
	}
	for _, u := range d.Updates {
		if _, err := fmt.Fprintf(bw, "%d", u.Time); err != nil {
			return err
		}
		for _, c := range u.Coords {
			if _, err := fmt.Fprintf(bw, ",%d", c); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(bw, ",%g\n", u.Delta); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func shapeString(s dims.Shape) string {
	parts := make([]string, len(s))
	for i, n := range s {
		parts[i] = strconv.Itoa(n)
	}
	return strings.Join(parts, "x")
}
