package mpicore

// RaceBuild exposes raceBuild to the external tests.
const RaceBuild = raceBuild
