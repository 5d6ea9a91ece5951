package ooc

// Lagging exposes lagging to the package's external tests.
var Lagging = lagging
