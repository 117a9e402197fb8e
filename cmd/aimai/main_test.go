package main

import (
	"strings"
	"testing"
)

// TestStrayArgumentsRejected: a subcommand that takes no positional
// argument names the first one in an error returned before it builds any
// database. The tune and serve calls name a database that does not exist,
// so an error reached after the database lookup would say so instead; the
// workloads call would print the suite and succeed.
func TestStrayArgumentsRejected(t *testing.T) {
	for _, c := range []struct {
		name string
		run  func([]string) error
		args []string
		want []string
	}{
		{"tune", cmdTune, []string{"-db", "nosuchdb", "-model", "none", "-iters", "1", "q6"}, []string{`"q6"`, "-query"}},
		{"serve", cmdServe, []string{"-addr", "127.0.0.1:0", "-db", "nosuchdb", "q6"}, []string{`"q6"`}},
		{"workloads", cmdWorkloads, []string{"-scale", "0.01", "tpch10"}, []string{`"tpch10"`}},
	} {
		t.Run(c.name, func(t *testing.T) {
			err := c.run(c.args)
			if err == nil {
				t.Fatalf("%s %v: no error", c.name, c.args)
			}
			for _, w := range append(c.want, c.name+": unexpected argument") {
				if !strings.Contains(err.Error(), w) {
					t.Fatalf("%s %v: error %q does not contain %q", c.name, c.args, err, w)
				}
			}
		})
	}
}
