// The dump mode: the WAL is binary, so this is how an operator reads one.

package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"edgerep/internal/journal"
	"edgerep/internal/online"
)

// runDump prints a journal directory as JSON lines: first its snapshot LSN,
// record count and whether a torn tail was dropped, then every record with
// its LSN. Both record formats print the same, so a journal's dump does not
// depend on which binary wrote it.
func runDump(args []string) error {
	var dir string
	fs := flag.NewFlagSet("edgerepd dump <journal dir>", flag.ContinueOnError)
	if err := parse(fs, args, nil, &dir); err != nil {
		return err
	}
	return dump(os.Stdout, dir)
}

func dump(w io.Writer, dir string) error {
	// journal.Load reads a missing directory as an empty journal; a dump of
	// a mistyped path should say so instead.
	if _, err := os.Stat(dir); err != nil {
		return err
	}
	st, err := journal.Load(dir)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	head := struct {
		SnapshotLSN int64 `json:"snapshot_lsn"`
		Records     int   `json:"records"`
		Torn        bool  `json:"torn"`
	}{st.SnapshotLSN, len(st.Records), st.Torn}
	if err := enc.Encode(head); err != nil {
		return err
	}
	var line struct {
		LSN int64 `json:"lsn"`
		online.JournalRecord
	}
	for i, raw := range st.Records {
		if err := online.DecodeRecord(raw, &line.JournalRecord); err != nil {
			return fmt.Errorf("%s: record %d: %w", dir, i+1, err)
		}
		line.LSN = int64(i + 1)
		if err := enc.Encode(&line); err != nil {
			return err
		}
	}
	return bw.Flush()
}
