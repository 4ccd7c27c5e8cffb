// Package buildinfo centralizes the repo's version identity: the version
// string printed by every command's -version flag and exported by the
// server's labeld_build_info metric, plus the list of labeling schemes
// compiled into a binary. Keeping it in one place means a version bump or a
// new scheme shows up in the CLI, the metrics, and the logs together.
package buildinfo

import (
	"fmt"
	"runtime"
	"strings"

	"primelabel/internal/labeling/codec"
)

// Version is the repo's semantic version, bumped per release-worthy PR.
const Version = "0.4.0"

// Schemes lists every labeling scheme compiled into the binaries, in the
// order the API documents them. It is read from the scheme registry that
// labeld's loads and primelabel.Config construct schemes from, so -version
// and labeld_build_info name exactly the schemes a load accepts.
var Schemes = codec.SchemeNames()

// GoVersion returns the Go toolchain version the binary was built with.
func GoVersion() string { return runtime.Version() }

// String renders the one-line -version output for the named command, e.g.
//
//	labeld 0.3.0 (go1.24.0) schemes=prime,prime-bottomup,...
func String(cmd string) string {
	return fmt.Sprintf("%s %s (%s) schemes=%s", cmd, Version, GoVersion(), strings.Join(Schemes, ","))
}
