// Command tlctl is the client for the tlsimd daemon.
//
// Usage:
//
//	tlctl [-addr http://127.0.0.1:8080] <command> [flags]
//
// Commands:
//
//	submit   submit an experiment (mini flag set, or -config file.json)
//	get      print one job's status (and result when done)
//	list     list all jobs
//	wait     poll a job until it settles; exit 0 on done, 1 otherwise
//	cancel   cancel a queued or running job
//	drain    ask the daemon to drain gracefully
//	health   check /healthz and /readyz
//
// Examples:
//
//	tlctl submit -policy tls-rr -jobs 4 -steps 3000 -seed 7
//	tlctl submit -config experiment.json -timeout 120
//	tlctl wait j000000
//	tlctl drain
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	tensorlights "repro"
	"repro/internal/server"
)

func main() {
	addr := flag.String("addr", "http://127.0.0.1:8080", "tlsimd base URL")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: tlctl [-addr URL] submit|get|list|wait|cancel|drain|health [flags]\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() < 1 {
		flag.Usage()
		os.Exit(2)
	}
	c := &client{base: *addr, http: &http.Client{Timeout: 30 * time.Second}}
	cmd, rest := flag.Arg(0), flag.Args()[1:]
	var err error
	switch cmd {
	case "submit":
		err = c.submit(rest)
	case "get":
		err = c.get(rest)
	case "list":
		err = c.list()
	case "wait":
		err = c.wait(rest)
	case "cancel":
		err = c.cancel(rest)
	case "drain":
		err = c.drain()
	case "health":
		err = c.health()
	default:
		fmt.Fprintf(os.Stderr, "tlctl: unknown command %q\n", cmd)
		flag.Usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tlctl: %v\n", err)
		os.Exit(1)
	}
}

type client struct {
	base string
	http *http.Client
}

// do issues one request and decodes the JSON body into out (when non-nil),
// translating non-2xx responses — including 429 shed with Retry-After —
// into errors.
func (c *client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var eb struct {
			Error      string  `json:"error"`
			RetryAfter float64 `json:"retry_after_sec"`
		}
		_ = json.Unmarshal(raw, &eb)
		msg := eb.Error
		if msg == "" {
			msg = string(bytes.TrimSpace(raw))
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			return fmt.Errorf("daemon overloaded (retry after %s s): %s",
				resp.Header.Get("Retry-After"), msg)
		}
		return fmt.Errorf("%s %s: %s: %s", method, path, resp.Status, msg)
	}
	if out != nil {
		return json.Unmarshal(raw, out)
	}
	return nil
}

func (c *client) submit(argv []string) error {
	fs := flag.NewFlagSet("submit", flag.ExitOnError)
	var (
		configPath = fs.String("config", "", "submit a full ExperimentConfig from this JSON file (overrides the flags below)")
		timeout    = fs.Float64("timeout", 0, "per-job deadline in seconds (0 = daemon default)")
		policy     = fs.String("policy", "tls-rr", "scheduling policy, "+tensorlights.PolicyUsage())
		placement  = fs.Int("placement", 1, "Table I placement index (1-8)")
		custom     = fs.String("custom-placement", "", "custom PS placement (overrides -placement)")
		model      = fs.String("model", "resnet32", "model from the zoo")
		jobs       = fs.Int("jobs", 21, "number of concurrent jobs")
		steps      = fs.Int("steps", 30000, "target global steps per job")
		seed       = fs.Int64("seed", 1, "random seed")
		follow     = fs.Bool("wait", false, "block until the job settles")
	)
	if err := fs.Parse(argv); err != nil {
		return err
	}
	var cfg tensorlights.ExperimentConfig
	if *configPath != "" {
		raw, err := os.ReadFile(*configPath)
		if err != nil {
			return err
		}
		if err := json.Unmarshal(raw, &cfg); err != nil {
			return fmt.Errorf("parse %s: %w", *configPath, err)
		}
	} else {
		pol, err := tensorlights.ParsePolicy(*policy)
		if err != nil {
			return err
		}
		cfg = tensorlights.ExperimentConfig{
			Policy:         pol,
			PlacementIndex: *placement,
			Placement:      *custom,
			Model:          *model,
			NumJobs:        *jobs,
			Steps:          *steps,
			Seed:           *seed,
		}
	}
	var st server.JobStatus
	if err := c.do("POST", "/v1/jobs", server.SubmitRequest{Config: cfg, TimeoutSec: *timeout}, &st); err != nil {
		return err
	}
	if st.Deduped && st.State == server.JobDone {
		fmt.Printf("%s: already computed (cache hit)\n", st.ID)
		printStatus(&st, true)
		return nil
	}
	fmt.Printf("%s: %s\n", st.ID, st.State)
	if *follow {
		return c.pollUntilTerminal(st.ID)
	}
	return nil
}

func (c *client) get(argv []string) error {
	if len(argv) != 1 {
		return fmt.Errorf("usage: tlctl get <job-id>")
	}
	var st server.JobStatus
	if err := c.do("GET", "/v1/jobs/"+argv[0], nil, &st); err != nil {
		return err
	}
	printStatus(&st, true)
	return nil
}

func (c *client) list() error {
	var jobs []server.JobStatus
	if err := c.do("GET", "/v1/jobs", nil, &jobs); err != nil {
		return err
	}
	for i := range jobs {
		printStatus(&jobs[i], false)
	}
	return nil
}

func (c *client) wait(argv []string) error {
	if len(argv) != 1 {
		return fmt.Errorf("usage: tlctl wait <job-id>")
	}
	return c.pollUntilTerminal(argv[0])
}

func (c *client) pollUntilTerminal(id string) error {
	for {
		var st server.JobStatus
		if err := c.do("GET", "/v1/jobs/"+id, nil, &st); err != nil {
			return err
		}
		switch st.State {
		case server.JobDone:
			printStatus(&st, true)
			return nil
		case server.JobFailed, server.JobCancelled:
			printStatus(&st, true)
			return fmt.Errorf("job %s settled %s", id, st.State)
		}
		time.Sleep(500 * time.Millisecond)
	}
}

func (c *client) cancel(argv []string) error {
	if len(argv) != 1 {
		return fmt.Errorf("usage: tlctl cancel <job-id>")
	}
	var st server.JobStatus
	if err := c.do("POST", "/v1/jobs/"+argv[0]+"/cancel", nil, &st); err != nil {
		return err
	}
	printStatus(&st, false)
	return nil
}

func (c *client) drain() error {
	if err := c.do("POST", "/v1/drain", nil, nil); err != nil {
		return err
	}
	fmt.Println("draining: daemon refuses new jobs and exits once in-flight work settles")
	return nil
}

func (c *client) health() error {
	live := c.do("GET", "/healthz", nil, nil)
	ready := c.do("GET", "/readyz", nil, nil)
	fmt.Printf("healthz: %s\n", okOr(live))
	fmt.Printf("readyz:  %s\n", okOr(ready))
	if live != nil || ready != nil {
		return fmt.Errorf("daemon not fully available")
	}
	return nil
}

func okOr(err error) string {
	if err != nil {
		return err.Error()
	}
	return "ok"
}

func printStatus(st *server.JobStatus, withResult bool) {
	line := fmt.Sprintf("%s  %-9s attempts=%d", st.ID, st.State, st.Attempts)
	if st.Error != "" {
		line += "  error=" + st.Error
	}
	fmt.Println(line)
	if withResult && st.Result != nil {
		fmt.Printf("  simulated %.1f s in %d events, avg JCT %.1f s\n",
			st.Result.SimulatedSeconds, st.Result.Events, st.Result.AvgJCT)
	}
}
