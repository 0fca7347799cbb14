// Package ignoredirective is a fexlint golden fixture for //lint:ignore
// validation, run under floatcmp: a directive must name registered
// analyzers and give a reason, or it is itself reported. Wants for a
// directive sit in a block comment ahead of it on the same line.
package ignoredirective

// wellFormed names a registered analyzer and gives a reason: the
// finding is suppressed and the directive is not reported.
func wellFormed(a, b float64) bool {
	//lint:ignore floatcmp fixture: a well-formed suppression
	return a == b
}

// unknown names an analyzer that is not registered, so it suppresses
// nothing and is reported.
func unknown(a, b float64) bool {
	/* want `unknown analyzer "mutcopy"` */ //lint:ignore mutcopy the analyzer was deleted
	return a == b                           // want `floating-point == comparison`
}

// mixed suppresses the registered analyzer it names and reports the
// unregistered one.
func mixed(a, b float64) bool {
	/* want `unknown analyzer "nosuch"` */ //lint:ignore floatcmp,nosuch one name is stale
	return a == b
}

// noReason names a registered analyzer but does not say why.
func noReason(a, b float64) bool {
	/* want `gives no reason` */ //lint:ignore floatcmp
	return a == b
}

// bare names no analyzer, so it suppresses nothing and is reported.
func bare(a, b float64) bool {
	/* want `names no analyzer` */ //lint:ignore
	return a == b                  // want `floating-point == comparison`
}

// wildcard is not a suppress-all: "*" is just an unknown name.
func wildcard(a, b float64) bool {
	/* want `unknown analyzer "\*"` */ //lint:ignore * every analyzer
	return a == b                      // want `floating-point == comparison`
}
