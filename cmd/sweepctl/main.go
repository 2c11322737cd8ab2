// Command sweepctl is the sweepd client and its in-process twin. It submits
// RunSpec batches to a running server, watches their progress, and fetches
// canonical results — or runs the same batch locally through
// experiments.Runner, producing a byte-identical results document, so a
// served sweep can be diffed against an in-process one:
//
//	sweepctl grid | sweepctl submit -addr http://localhost:8080 -wait > served.json
//	sweepctl grid | sweepctl local > local.json
//	diff served.json local.json
//
// Subcommands:
//
//	grid           print a spec batch (the 12-config NVDLA grid by default)
//	submit         POST a batch from stdin; -wait polls and prints results
//	status         print one job's status
//	results        print one job's canonical results
//	watch          stream one job's live JSONL progress
//	cancel         cancel a job (queued points are skipped)
//	local          run a batch from stdin in-process and print results
//	server-status  print server-wide status
//	metrics        dump the Prometheus text-format metrics plane
//	top            render the fleet's per-component attribution table
//	healthz        probe server health (exit 1 while draining/unhealthy)
//	quarantine     list quarantined (poison) points and corrupt store files
//	unquarantine   clear a point's quarantine record so it may simulate again
//	drain          stop the server's intake and let the queue finish
//
// When the server sheds load (429) or is draining (503), the returned error
// echoes the Retry-After hint so scripts know how long to back off.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"gem5rtl/internal/cli"
	"gem5rtl/internal/experiments"
	"gem5rtl/internal/prof"
	"gem5rtl/internal/sim"
	"gem5rtl/internal/sweepd"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "grid":
		err = cmdGrid(args)
	case "submit":
		err = cmdSubmit(args)
	case "status":
		err = cmdJobGet(args, "", "status")
	case "results":
		err = cmdJobGet(args, "/results", "results")
	case "watch":
		err = cmdJobGet(args, "/stream", "watch")
	case "cancel":
		err = cmdCancel(args)
	case "local":
		err = cmdLocal(args)
	case "server-status":
		err = cmdServer(args, http.MethodGet, "/v1/status", "server-status")
	case "metrics":
		err = cmdServer(args, http.MethodGet, "/v1/metrics", "metrics")
	case "top":
		err = cmdTop(args)
	case "healthz":
		err = cmdServer(args, http.MethodGet, "/v1/healthz", "healthz")
	case "quarantine":
		err = cmdServer(args, http.MethodGet, "/v1/quarantine", "quarantine")
	case "unquarantine":
		err = cmdUnquarantine(args)
	case "drain":
		err = cmdServer(args, http.MethodPost, "/v1/drain", "drain")
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "sweepctl:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: sweepctl {grid|submit|status|results|watch|cancel|local|server-status|metrics|top|healthz|quarantine|unquarantine|drain} [flags]")
	os.Exit(2)
}

// cmdGrid prints a spec batch: by default the 12-config NVDLA grid
// (sanity3, one accelerator, {DDR4-1ch, DDR4-4ch, HBM} × {1, 16, 64, 240}).
func cmdGrid(args []string) error {
	fs := flag.NewFlagSet("grid", flag.ExitOnError)
	workload := fs.String("workload", "sanity3", "workload for every point")
	n := fs.Int("n", 1, "accelerator instances per point")
	scale := fs.Int("scale", 32, "trace footprint divisor")
	mems := fs.String("mems", "DDR4-1ch,DDR4-4ch,HBM", "comma-separated memory technologies")
	inflights := fs.String("inflights", "1,16,64,240", "comma-separated in-flight caps")
	fs.Parse(args)

	p := experiments.DSEParams{Scale: *scale, Limit: 8 * sim.Second}
	var specs []experiments.RunSpec
	for _, infStr := range strings.Split(*inflights, ",") {
		var inf int
		if _, err := fmt.Sscanf(strings.TrimSpace(infStr), "%d", &inf); err != nil {
			return fmt.Errorf("bad -inflights entry %q", infStr)
		}
		for _, mem := range strings.Split(*mems, ",") {
			spec := p.Spec(*workload, *n, strings.TrimSpace(mem), inf)
			if err := spec.Validate(); err != nil {
				return err
			}
			specs = append(specs, spec)
		}
	}
	buf, err := json.MarshalIndent(specs, "", "  ")
	if err != nil {
		return err
	}
	fmt.Println(string(buf))
	return nil
}

// serverFlags starts the flag set of a subcommand that talks to a server,
// with the -addr every such subcommand takes.
func serverFlags(name string) (*flag.FlagSet, *string) {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs, fs.String("addr", "http://localhost:8080", "sweepd base URL")
}

// readSpecs parses a strict spec batch from stdin.
func readSpecs() ([]experiments.RunSpec, error) {
	data, err := io.ReadAll(os.Stdin)
	if err != nil {
		return nil, err
	}
	return experiments.ParseSpecs(data)
}

// cmdSubmit posts a batch; with -wait it polls to completion and prints the
// canonical results document (byte-identical to `sweepctl local`).
func cmdSubmit(args []string) error {
	fs, addr := serverFlags("submit")
	client := fs.String("client", "", "client name for quota accounting")
	priority := fs.Int("priority", 0, "queue priority (higher runs first)")
	wait := fs.Bool("wait", false, "poll until the job finishes, then print its results")
	fs.Parse(args)

	specs, err := readSpecs()
	if err != nil {
		return err
	}
	body, err := json.Marshal(sweepd.SubmitRequest{Client: *client, Priority: *priority, Specs: specs})
	if err != nil {
		return err
	}
	resp, err := http.Post(*addr+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		return httpError("submit", resp)
	}
	var sub sweepd.SubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		return err
	}
	if !*wait {
		fmt.Printf("%s points=%d cached=%d\n", sub.ID, sub.Points, sub.Cached)
		return nil
	}
	for {
		st, err := fetchStatus(*addr, sub.ID)
		if err != nil {
			return err
		}
		if st.State != sweepd.JobRunning {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	return printBody(*addr + "/v1/jobs/" + sub.ID + "/results")
}

func fetchStatus(addr, id string) (sweepd.JobStatus, error) {
	var st sweepd.JobStatus
	resp, err := http.Get(addr + "/v1/jobs/" + id)
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, httpError("status", resp)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// cmdJobGet streams one job GET endpoint ("" status, "/results", "/stream")
// to stdout.
func cmdJobGet(args []string, suffix, name string) error {
	fs, addr := serverFlags(name)
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl %s [-addr URL] <job-id>", name)
	}
	return printBody(*addr + "/v1/jobs/" + fs.Arg(0) + suffix)
}

func cmdCancel(args []string) error {
	fs, addr := serverFlags("cancel")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl cancel [-addr URL] <job-id>")
	}
	req, err := http.NewRequest(http.MethodDelete, *addr+"/v1/jobs/"+fs.Arg(0), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("cancel", resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// cmdLocal runs a batch in-process through experiments.Runner and prints the
// canonical results document — the reference a served sweep is diffed
// against.
func cmdLocal(args []string) error {
	fs := flag.NewFlagSet("local", flag.ExitOnError)
	parallel := cli.Parallel(fs, 0)
	fs.Parse(args)
	specs, err := readSpecs()
	if err != nil {
		return err
	}
	results, err := experiments.Runner{Workers: *parallel}.Sweep(context.Background(), specs)
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(sweepd.EncodeResults(sweepd.FromRunnerResults(results)))
	return err
}

func cmdServer(args []string, method, path, name string) error {
	fs, addr := serverFlags(name)
	fs.Parse(args)
	req, err := http.NewRequest(method, *addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError(name, resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// printBody GETs a URL and copies the body to stdout (streaming, so `watch`
// follows a live JSONL stream).
func printBody(url string) error {
	resp, err := http.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("get", resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// cmdTop fetches /v1/metrics and renders the fleet view an operator wants
// first: the queue/worker gauges on one line, then the aggregated
// per-component attribution table sorted by host-time share (populated only
// when the server runs with -self-profile).
func cmdTop(args []string) error {
	fs, addr := serverFlags("top")
	k := fs.Int("k", 15, "attribution rows to show (0 = all)")
	fs.Parse(args)

	resp, err := http.Get(*addr + "/v1/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("top", resp)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	gauges, rep := parseMetrics(string(body))
	fmt.Printf("pending=%g running=%g retrying=%g quarantined=%g workers busy=%g/%g util=%.0f%%\n",
		gauges["sweepd_points_pending"], gauges["sweepd_points_running"],
		gauges["sweepd_points_retrying"], gauges["sweepd_quarantined"],
		gauges["sweepd_workers_busy"], gauges["sweepd_workers_live"],
		gauges["sweepd_workers_utilization"]*100)
	if len(rep.Samples) == 0 {
		fmt.Println("no attribution samples (is the server running with -self-profile?)")
		return nil
	}
	fmt.Println("aggregated attribution (share of sampled host time):")
	return rep.WriteTable(os.Stdout, *k)
}

// parseMetrics reads a Prometheus text-format body back into the unlabelled
// gauges (keyed by name with the metric prefix stripped) and the selfprof
// attribution report. It understands exactly the subset sweepd emits.
func parseMetrics(body string) (map[string]float64, *prof.Report) {
	gauges := map[string]float64{}
	byOwner := map[[2]string]*prof.Sample{}
	rep := &prof.Report{}
	for _, line := range strings.Split(body, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		id, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			continue
		}
		brace := strings.IndexByte(id, '{')
		if brace < 0 {
			gauges[strings.TrimPrefix(id, sweepd.MetricsPrefix)] = val
			continue
		}
		name := strings.TrimPrefix(id[:brace], sweepd.MetricsPrefix)
		if name != "selfprof_events_total" && name != "selfprof_seconds_total" {
			continue
		}
		labels := parseLabels(id[brace:])
		key := [2]string{labels["component"], labels["kind"]}
		s := byOwner[key]
		if s == nil {
			s = &prof.Sample{Component: key[0], Kind: key[1]}
			byOwner[key] = s
		}
		if name == "selfprof_events_total" {
			s.Events = uint64(val)
		} else {
			s.HostNS = int64(val * 1e9)
		}
	}
	for _, s := range byOwner {
		rep.Samples = append(rep.Samples, *s)
	}
	return gauges, rep
}

// parseLabels decodes a {k="v",...} label set (quoted-string values, as the
// server emits them).
func parseLabels(s string) map[string]string {
	out := map[string]string{}
	s = strings.TrimPrefix(s, "{")
	s = strings.TrimSuffix(s, "}")
	for len(s) > 0 {
		eq := strings.IndexByte(s, '=')
		if eq < 0 || eq+1 >= len(s) || s[eq+1] != '"' {
			return out
		}
		key := s[:eq]
		rest := s[eq+1:]
		val, err := strconv.Unquote(unquotePrefix(rest))
		if err != nil {
			return out
		}
		out[key] = val
		consumed := len(unquotePrefix(rest))
		s = rest[consumed:]
		s = strings.TrimPrefix(s, ",")
	}
	return out
}

// unquotePrefix returns the leading Go-quoted string of s (including both
// quotes), honouring backslash escapes.
func unquotePrefix(s string) string {
	for i := 1; i < len(s); i++ {
		if s[i] == '\\' {
			i++
			continue
		}
		if s[i] == '"' {
			return s[:i+1]
		}
	}
	return s
}

// cmdUnquarantine clears one point's quarantine record by fingerprint; the
// next submission of the point simulates it with a fresh attempt budget.
func cmdUnquarantine(args []string) error {
	fs, addr := serverFlags("unquarantine")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: sweepctl unquarantine [-addr URL] <fingerprint>")
	}
	req, err := http.NewRequest(http.MethodDelete, *addr+"/v1/quarantine/"+fs.Arg(0), nil)
	if err != nil {
		return err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("unquarantine", resp)
	}
	_, err = io.Copy(os.Stdout, resp.Body)
	return err
}

// httpError decodes the server's JSON error body into a CLI error. A shed
// (429) or draining (503) response carries a Retry-After hint, echoed so
// scripts and humans know how long to back off before resubmitting.
func httpError(what string, resp *http.Response) error {
	var e struct {
		Error string `json:"error"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&e)
	if e.Error == "" {
		e.Error = resp.Status
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		return fmt.Errorf("%s: %s (retry after %ss)", what, e.Error, ra)
	}
	return fmt.Errorf("%s: %s", what, e.Error)
}
