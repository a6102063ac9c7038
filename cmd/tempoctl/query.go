package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"os"
	"sort"
	"strings"
	"time"

	"tempo"
	"tempo/internal/service"
)

// runQuery is the `tempoctl query` subcommand: a client for tempod's
// ad-hoc query API (POST /v1/clusters/{id}/query, and the SSE stream
// variant with -stream).
func runQuery(args []string) error {
	fs := flag.NewFlagSet("tempoctl query", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://localhost:8080", "tempod base URL")
		clusterID = fs.String("cluster", "", "cluster id (required)")
		planArg   = fs.String("plan", "", "query plan: inline JSON, a file path, or - for stdin (required)")
		stream    = fs.Bool("stream", false, "subscribe to the live SSE stream and print per-tick deltas until the session completes")
		asJSON    = fs.Bool("json", false, "print raw JSON (one-shot: the full result; stream: one delta object per line)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *clusterID == "" {
		return errors.New("-cluster is required")
	}
	planText, err := loadPlanText(*planArg)
	if err != nil {
		return err
	}
	// Validate client-side first, so a bad plan fails with the offending
	// operator named instead of a round trip.
	if _, err := tempo.ParseQueryPlan(strings.NewReader(planText)); err != nil {
		return err
	}
	if *stream {
		return streamQuery(os.Stdout, *addr, *clusterID, planText, *asJSON)
	}
	return oneShotQuery(os.Stdout, *addr, *clusterID, planText, *asJSON)
}

// loadPlanText resolves the -plan argument: "-" reads stdin, a leading
// "{" is inline JSON, anything else is a file path.
func loadPlanText(arg string) (string, error) {
	switch {
	case arg == "":
		return "", errors.New("-plan is required")
	case arg == "-":
		b, err := io.ReadAll(os.Stdin)
		if err != nil {
			return "", fmt.Errorf("reading plan from stdin: %w", err)
		}
		return string(b), nil
	case strings.HasPrefix(strings.TrimSpace(arg), "{"):
		return arg, nil
	default:
		b, err := os.ReadFile(arg)
		if err != nil {
			return "", fmt.Errorf("reading plan file: %w", err)
		}
		return string(b), nil
	}
}

// oneShotQuery POSTs the plan through the shared client: every call is
// bounded end to end and a shed-before-execution refusal is retried
// twice. Streaming uses its own transport (a stream legitimately lives
// for minutes).
func oneShotQuery(w io.Writer, addr, id, planText string, asJSON bool) error {
	raw, err := service.NewClient(service.DriveOptions{Retries: 2}).
		Do(http.MethodPost, addr+"/v1/clusters/"+id+"/query", []byte(planText))
	if err != nil {
		return err
	}
	if asJSON {
		fmt.Fprintln(w, strings.TrimSpace(string(raw)))
		return nil
	}
	var res tempo.QueryResult
	if err := json.Unmarshal(raw, &res); err != nil {
		return fmt.Errorf("decoding result: %w", err)
	}
	fmt.Fprintf(w, "ticks: %d, rows: %d", res.Ticks, len(res.Rows))
	if res.Truncated {
		fmt.Fprint(w, " (truncated by limit)")
	}
	fmt.Fprintln(w)
	for i := range res.Rows {
		fmt.Fprintln(w, formatRow(&res.Rows[i]))
	}
	return nil
}

func streamQuery(w io.Writer, addr, id, planText string, asJSON bool) error {
	u := addr + "/v1/clusters/" + id + "/query/stream?plan=" + url.QueryEscape(planText)
	// No end-to-end timeout — a standing subscription legitimately lives
	// until the session completes — but the server must start answering
	// promptly, so only the response header is deadlined.
	client := &http.Client{Transport: &http.Transport{ResponseHeaderTimeout: 30 * time.Second}}
	resp, err := client.Get(u)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		raw, _ := io.ReadAll(resp.Body) // a body we cannot read still leaves the status to report
		return errors.New(service.EnvelopeError(resp.Status, raw))
	}
	var event, data string
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "" && event != "":
			done, err := printStreamEvent(w, event, data, asJSON)
			if err != nil || done {
				return err
			}
			event, data = "", ""
		}
	}
	return sc.Err()
}

// printStreamEvent renders one SSE event; done reports a terminal event.
func printStreamEvent(w io.Writer, event, data string, asJSON bool) (done bool, err error) {
	switch event {
	case "result":
		if asJSON {
			fmt.Fprintln(w, data)
			return false, nil
		}
		var delta struct {
			Tick int              `json:"tick"`
			Rows []tempo.QueryRow `json:"rows"`
		}
		if err := json.Unmarshal([]byte(data), &delta); err != nil {
			return false, fmt.Errorf("decoding result event: %w", err)
		}
		for i := range delta.Rows {
			fmt.Fprintln(w, formatRow(&delta.Rows[i]))
		}
		return false, nil
	case "done":
		if asJSON {
			fmt.Fprintln(w, data)
		} else {
			fmt.Fprintf(w, "done: %s\n", data)
		}
		return true, nil
	case "error":
		var env struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		if err := json.Unmarshal([]byte(data), &env); err != nil {
			return true, fmt.Errorf("stream error: %s", data)
		}
		return true, fmt.Errorf("stream error: %s: %s", env.Code, env.Error)
	default:
		return false, nil
	}
}

// formatRow renders one result row on one line, map keys sorted so the
// output is deterministic.
func formatRow(r *tempo.QueryRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "tick=%d t=%gs", r.Tick, r.TimeSeconds)
	if r.WindowToSeconds < 0 {
		fmt.Fprintf(&b, " window=[%gs,∞)", r.WindowFromSeconds)
	} else {
		fmt.Fprintf(&b, " window=[%gs,%gs)", r.WindowFromSeconds, r.WindowToSeconds)
	}
	appendSorted := func(label string, m map[string]string) {
		if len(m) == 0 {
			return
		}
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&b, " %s{", label)
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%s", k, m[k])
		}
		b.WriteString("}")
	}
	appendSorted("group", r.Group)
	appendSorted("strings", r.Strings)
	if len(r.Values) > 0 {
		keys := make([]string, 0, len(r.Values))
		for k := range r.Values {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		b.WriteString(" values{")
		for i, k := range keys {
			if i > 0 {
				b.WriteString(" ")
			}
			fmt.Fprintf(&b, "%s=%g", k, r.Values[k])
		}
		b.WriteString("}")
	}
	return b.String()
}
