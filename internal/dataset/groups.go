package dataset

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"gpluscircles/internal/graph"
	"gpluscircles/internal/score"
)

// ReadCommunities parses a SNAP community file (one community per line,
// whitespace-separated external vertex IDs, as in com-lj.all.cmty.txt)
// and resolves members against the graph. Members absent from the graph
// are skipped; communities with fewer than minSize resolved members are
// dropped. Community names are "comN" by line order.
func ReadCommunities(r io.Reader, g *graph.Graph, minSize int) ([]score.Group, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 4*1024*1024), 4*1024*1024)
	var out []score.Group
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		var members []graph.VID
		for _, field := range strings.Fields(line) {
			ext, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("community line %d: %w", lineNo, err)
			}
			if v, ok := g.Lookup(ext); ok {
				members = append(members, v)
			}
		}
		if len(members) >= minSize {
			out = append(out, score.Group{
				Name:    fmt.Sprintf("com%d", lineNo),
				Members: members,
			})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("community scan: %w", err)
	}
	return out, nil
}

// ReadCommunitiesFile reads a (possibly gzipped) community file.
func ReadCommunitiesFile(path string, g *graph.Graph, minSize int) ([]score.Group, error) {
	r, closer, err := openMaybeGzip(path)
	if err != nil {
		return nil, err
	}
	defer closer()
	groups, err := ReadCommunities(r, g, minSize)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return groups, nil
}

// WriteCommunities writes groups in the SNAP community format, one line
// of external IDs per group.
func WriteCommunities(w io.Writer, g *graph.Graph, groups []score.Group) error {
	bw := bufio.NewWriter(w)
	for _, grp := range groups {
		for i, v := range grp.Members {
			sep := "\t"
			if i == 0 {
				sep = ""
			}
			if _, err := fmt.Fprintf(bw, "%s%d", sep, g.ExternalID(v)); err != nil {
				return fmt.Errorf("community write: %w", err)
			}
		}
		if _, err := fmt.Fprintln(bw); err != nil {
			return fmt.Errorf("community write: %w", err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("community flush: %w", err)
	}
	return nil
}

// WriteCommunitiesFile writes a community file to disk.
func WriteCommunitiesFile(path string, g *graph.Graph, groups []score.Group) (err error) {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("create %s: %w", path, err)
	}
	defer func() {
		if cerr := f.Close(); cerr != nil && err == nil {
			err = fmt.Errorf("close %s: %w", path, cerr)
		}
	}()
	return WriteCommunities(f, g, groups)
}

// ReadEgoCircles parses a McAuley–Leskovec .circles file: one circle per
// line, "circleName\tmember1\tmember2...". Members are resolved against
// the graph; the owner (if given, >= 0) is NOT added to the circle,
// matching the original format where circles list alters only.
func ReadEgoCircles(r io.Reader, g *graph.Graph, prefix string, minSize int) ([]score.Group, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	var out []score.Group
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		name := fields[0]
		if prefix != "" {
			name = prefix + "/" + name
		}
		var members []graph.VID
		for _, field := range fields[1:] {
			ext, err := strconv.ParseInt(field, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("circles line %d: %w", lineNo, err)
			}
			if v, ok := g.Lookup(ext); ok {
				members = append(members, v)
			}
		}
		if len(members) >= minSize {
			out = append(out, score.Group{Name: name, Members: members})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("circles scan: %w", err)
	}
	return out, nil
}
