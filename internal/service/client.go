package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"
)

const (
	// submitAttempts bounds how many 429s one Submit absorbs before
	// giving up; maxRetryAfter caps how long a single Retry-After hint
	// is honored.
	submitAttempts = 8
	maxRetryAfter  = 30 * time.Second
	// streamAttempts bounds consecutive failed stream connections;
	// receiving any event resets the streak.
	streamAttempts = 5
)

// Client speaks the /v1/jobs API of one seesaw-served daemon, so every
// command-line tool that runs cells remotely takes the daemon's address.
// It is a polite client of a busy server: submissions honor 429 +
// Retry-After instead of failing, and event streams auto-reconnect with
// Last-Event-ID so a dropped connection resumes exactly where it left
// off.
type Client struct {
	base string
	http *http.Client

	// sleep is the wait seam (tests replace it to run instantly).
	sleep func(context.Context, time.Duration) error
}

// NewClient points a client at addr (host:port or http URL).
func NewClient(addr string) *Client {
	base := addr
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	return &Client{
		base:  strings.TrimRight(base, "/"),
		http:  &http.Client{},
		sleep: sleepCtx,
	}
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// Submit posts one job. A 429 is not an error — the server is asking the
// client to pace itself — so Submit sleeps out the Retry-After hint and
// tries again, up to submitAttempts times.
func (c *Client) Submit(ctx context.Context, req JobRequest) (JobStatus, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return JobStatus{}, err
	}
	var lastErr error
	for attempt := 0; attempt < submitAttempts; attempt++ {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+"/v1/jobs", bytes.NewReader(body))
		if err != nil {
			return JobStatus{}, err
		}
		hreq.Header.Set("Content-Type", "application/json")
		resp, err := c.http.Do(hreq)
		if err != nil {
			return JobStatus{}, err
		}
		if resp.StatusCode == http.StatusTooManyRequests {
			wait := min(retryAfter(resp, time.Second), maxRetryAfter)
			msg := drainError(resp)
			lastErr = fmt.Errorf("submit: HTTP 429: %s (retry in %s)", msg, wait)
			if err := c.sleep(ctx, wait); err != nil {
				return JobStatus{}, err
			}
			continue
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			return JobStatus{}, fmt.Errorf("submit: HTTP %d: %s", resp.StatusCode, drainError(resp))
		}
		var st JobStatus
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			return JobStatus{}, fmt.Errorf("submit: %w", err)
		}
		return st, nil
	}
	return JobStatus{}, fmt.Errorf("submit: rate-limited %d times: %w", submitAttempts, lastErr)
}

// Status fetches one job, with per-cell results when withResults.
func (c *Client) Status(ctx context.Context, id string, withResults bool) (JobStatus, error) {
	url := c.base + "/v1/jobs/" + id
	if !withResults {
		url += "?results=0"
	}
	var st JobStatus
	if err := c.getJSON(ctx, url, &st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Cancel cancels one job.
func (c *Client) Cancel(ctx context.Context, id string) (JobStatus, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodDelete, c.base+"/v1/jobs/"+id, nil)
	if err != nil {
		return JobStatus{}, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return JobStatus{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return JobStatus{}, fmt.Errorf("cancel: HTTP %d: %s", resp.StatusCode, drainError(resp))
	}
	var st JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return JobStatus{}, err
	}
	return st, nil
}

// Wait polls until the job reaches a terminal state and returns its
// final status with results.
func (c *Client) Wait(ctx context.Context, id string, poll time.Duration) (JobStatus, error) {
	if poll <= 0 {
		poll = 200 * time.Millisecond
	}
	for {
		st, err := c.Status(ctx, id, true)
		if err != nil {
			return JobStatus{}, err
		}
		if Terminal(st.State) {
			return st, nil
		}
		if err := c.sleep(ctx, poll); err != nil {
			return JobStatus{}, err
		}
	}
}

// Stream tails the job's SSE progress events, invoking fn for each, and
// returns once the terminal "done" event arrives. A dropped connection
// reconnects with Last-Event-ID set to the last event's sequence, so fn
// sees every event exactly once across reconnects.
func (c *Client) Stream(ctx context.Context, id string, fn func(Event)) error {
	lastSeq := 0
	fails := 0
	for {
		done, err := c.streamOnce(ctx, id, &lastSeq, fn)
		if done {
			return nil
		}
		if err != nil {
			var he *httpError
			if errors.As(err, &he) {
				return err // 404 and friends: reconnecting cannot help
			}
			if ctx.Err() != nil {
				return ctx.Err()
			}
			fails++
			if fails >= streamAttempts {
				return fmt.Errorf("stream: giving up after %d failed connections: %w", fails, err)
			}
			if serr := c.sleep(ctx, time.Duration(fails)*500*time.Millisecond); serr != nil {
				return serr
			}
			continue
		}
		// Clean EOF without "done": the server went away mid-job;
		// reconnect and resume.
		fails = 0
	}
}

// streamOnce runs one stream connection. It advances *lastSeq as events
// arrive and reports done=true once the terminal event is delivered.
func (c *Client) streamOnce(ctx context.Context, id string, lastSeq *int, fn func(Event)) (done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/stream", nil)
	if err != nil {
		return false, err
	}
	if *lastSeq > 0 {
		req.Header.Set("Last-Event-ID", strconv.Itoa(*lastSeq))
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, &httpError{code: resp.StatusCode, msg: drainError(resp)}
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 16<<20)
	seq, event, data := 0, "", ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "id: "):
			seq, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			data = strings.TrimPrefix(line, "data: ")
		case line == "":
			if event == "" {
				continue
			}
			var ev Event
			if err := json.Unmarshal([]byte(data), &ev); err != nil {
				return false, fmt.Errorf("stream: bad event: %w", err)
			}
			ev.Seq = seq
			if seq > *lastSeq {
				*lastSeq = seq
				fn(ev)
			}
			if ev.Type == "done" {
				return true, nil
			}
			seq, event, data = 0, "", ""
		}
	}
	return false, sc.Err()
}

// httpError is a non-200 stream response; not retriable.
type httpError struct {
	code int
	msg  string
}

func (e *httpError) Error() string { return fmt.Sprintf("stream: HTTP %d: %s", e.code, e.msg) }

func (c *Client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: HTTP %d: %s", url, resp.StatusCode, drainError(resp))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// retryAfter parses the Retry-After header (seconds form), defaulting
// when absent or malformed.
func retryAfter(resp *http.Response, def time.Duration) time.Duration {
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, err := strconv.Atoi(s); err == nil && secs >= 0 {
			return time.Duration(secs) * time.Second
		}
	}
	return def
}

// drainError extracts the {"error": ...} body, or a truncated raw body.
func drainError(resp *http.Response) string {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	var eb ErrorBody
	if err := json.Unmarshal(raw, &eb); err == nil && eb.Error != "" {
		return eb.Error
	}
	return strings.TrimSpace(string(raw))
}
