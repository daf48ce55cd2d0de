// The benchmark is a module of its own so that tier-1 (go build/test ./...
// at the root) neither builds nor depends on it. The module path keeps the
// plsqlaway/ prefix, which is what lets it import plsqlaway/internal/...
module plsqlaway/benchmark

go 1.24

require plsqlaway v0.0.0

replace plsqlaway => ../
