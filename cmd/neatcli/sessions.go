package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
	"time"

	"repro/internal/server"
)

// cmdSessions administers the tenants of a running neatserver over
// its /v1/sessions API: the default action lists them; -create
// provisions one from a mapgen region preset and -delete removes one.
// -limits shows a session's guard limits, and with any of the
// override flags (-qps, -burst, -points-per-sec, -point-burst)
// replaces them. Data commands
// target a tenant by appending ?session=<name> to the server routes
// (or via the client's Session method).
func cmdSessions(args []string) error {
	fs := newFlagSet("sessions")
	addr := fs.String("server", "http://localhost:8080", "base URL of the running neatserver")
	create := fs.String("create", "", "create a session with this name")
	region := fs.String("region", "ATL", "mapgen preset for -create: ATL, SJ, or MIA")
	scale := fs.Float64("scale", 0.1, "map scale for -create")
	del := fs.String("delete", "", "delete the session with this name")
	limits := fs.String("limits", "", "show this session's guard limits (set them with the override flags below)")
	qps := fs.Float64("qps", 0, "with -limits: ingest requests/sec (0 = unlimited)")
	burst := fs.Int("burst", 0, "with -limits: ingest burst (0 = derived from -qps)")
	pps := fs.Float64("points-per-sec", 0, "with -limits: trajectory points/sec (0 = unlimited)")
	ptBurst := fs.Int("point-burst", 0, "with -limits: point burst (0 = derived from -points-per-sec)")
	timeout := fs.Duration("timeout", 30*time.Second, "request timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	actions := 0
	for _, set := range []bool{*create != "", *del != "", *limits != ""} {
		if set {
			actions++
		}
	}
	if actions > 1 {
		return fmt.Errorf("-create, -delete, and -limits are mutually exclusive")
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	c := server.NewClient(*addr, nil)

	switch {
	case *create != "":
		dto, err := c.CreateSession(ctx, server.CreateSessionRequest{
			Name: *create, Region: *region, Scale: *scale,
		})
		if err != nil {
			return err
		}
		fmt.Printf("created session %q: %d junctions, %d segments (durable=%v)\n",
			dto.Name, dto.Junctions, dto.Segments, dto.Durable)
		return nil
	case *del != "":
		if err := c.DeleteSession(ctx, *del); err != nil {
			return err
		}
		fmt.Printf("deleted session %q\n", *del)
		return nil
	case *limits != "":
		setting := false
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "qps", "burst", "points-per-sec", "point-burst":
				setting = true
			}
		})
		var lim server.SessionLimitsDTO
		var err error
		if setting {
			lim, err = c.SetSessionLimits(ctx, server.SessionLimitsDTO{
				Session: *limits, IngestQPS: *qps, IngestBurst: *burst,
				PointsPerSec: *pps, PointBurst: *ptBurst,
			})
		} else {
			lim, err = c.SessionLimits(ctx, *limits)
		}
		if err != nil {
			return err
		}
		fmt.Printf("session %q limits: ingest %s req/s (burst %s), %s points/s (burst %s)\n",
			lim.Session, orUnlimited(lim.IngestQPS), orUnlimited(float64(lim.IngestBurst)),
			orUnlimited(lim.PointsPerSec), orUnlimited(float64(lim.PointBurst)))
		return nil
	default:
		ls, err := c.Sessions(ctx)
		if err != nil {
			return err
		}
		w := tabwriter.NewWriter(os.Stdout, 0, 4, 2, ' ', 0)
		fmt.Fprintln(w, "NAME\tJUNCTIONS\tSEGMENTS\tTRAJECTORIES\tFRAGMENTS\tBATCHES\tDURABLE\tRECOVERED\tDEGRADED\tQUARANTINED")
		for _, s := range ls.Sessions {
			quarantined := fmt.Sprintf("%v", s.Quarantined)
			if s.Quarantined && s.BreakerState != "" {
				quarantined = s.BreakerState
			}
			fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%v\t%d\t%v\t%s\n",
				s.Name, s.Junctions, s.Segments, s.Trajectories, s.TotalFragments,
				s.Batches, s.Durable, s.RecoveredBatches, s.Degraded, quarantined)
		}
		return w.Flush()
	}
}

// orUnlimited renders a zero limit as the word it means.
func orUnlimited(v float64) string {
	if v <= 0 {
		return "unlimited"
	}
	return fmt.Sprintf("%g", v)
}
