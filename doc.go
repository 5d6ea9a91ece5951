// Package oocphylo reproduces Izquierdo-Carrasco & Stamatakis,
// "Computing the Phylogenetic Likelihood Function Out-of-Core"
// (IPDPS Workshops / HICOMB 2011): a from-scratch Go implementation of
// the phylogenetic likelihood function (Felsenstein pruning with
// GTR-class models and discrete-Γ rate heterogeneity, Newton-Raphson
// branch optimisation, lazy-SPR tree search) whose ancestral
// probability vectors can live behind an out-of-core slot manager with
// pluggable replacement strategies, pinning and read skipping.
//
// See README.md for the tour, DESIGN.md for the system inventory and
// EXPERIMENTS.md for the paper-versus-measured record. cmd/figures
// regenerates every figure of the paper's evaluation.
package oocphylo
