package main

import (
	"strings"
	"testing"
)

func TestSelectExperiments(t *testing.T) {
	for _, tc := range []struct {
		list    string
		want    string // selected names, space-separated
		unknown []string
	}{
		{list: "all", want: "table1 fig10 fig11a fig11b table2 ablations"},
		{list: "table2, Table1", want: "table1 table2"},
		{list: "ablations,all", want: "table1 fig10 fig11a fig11b table2 ablations"},
		{list: "table1,tabel2", unknown: []string{`"tabel2"`}},
		{list: "parallel,all,mixed", unknown: []string{`"mixed"`, `"parallel"`}},
		{list: "table1,", unknown: []string{`""`}},
	} {
		got, err := selectExperiments(tc.list)
		if len(tc.unknown) > 0 {
			if err == nil {
				t.Errorf("%q: accepted, want an error naming %v", tc.list, tc.unknown)
				continue
			}
			for _, name := range tc.unknown {
				if !strings.Contains(err.Error(), name) {
					t.Errorf("%q: error %q does not name %s", tc.list, err, name)
				}
			}
			continue
		}
		if err != nil {
			t.Errorf("%q: %v", tc.list, err)
			continue
		}
		var names []string
		for _, x := range got {
			names = append(names, x.name)
		}
		if strings.Join(names, " ") != tc.want {
			t.Errorf("%q selected %v, want %s", tc.list, names, tc.want)
		}
	}
}
