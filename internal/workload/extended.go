package workload

// The rest of SPEC CPU2017 beyond the paper's recommended 11-benchmark
// subset (Section 3.1 cites Limaye & Adegbija's characterisation, which
// covers the full suite). These let downstream users build mixes the paper
// did not evaluate; every experiment in this repository sticks to the
// paper's subset. Parameters follow the same calibration conventions as
// profiles.go: demand class via activity factor, memory-boundness via the
// frequency-insensitive stall term, AVX for wide-vector code.
var extendedProfiles = []Profile{
	// Integer suite.
	{
		Name: "mcf", BaseCPI: 1.20, MemStall: 0.60e-9, Activity: 0.75,
		TotalInstructions: 2.0e11,
	},
	{
		Name: "xalancbmk", BaseCPI: 1.10, MemStall: 0.30e-9, Activity: 0.85,
		TotalInstructions: 2.8e11,
	},
	{
		Name: "x264", BaseCPI: 0.70, MemStall: 0.05e-9, Activity: 1.25, AVX: true,
		TotalInstructions: 4.4e11,
	},
	{
		Name: "xz", BaseCPI: 1.15, MemStall: 0.25e-9, Activity: 0.80,
		TotalInstructions: 2.6e11,
		Phases: []Phase{
			{Instructions: 3e9, CPIMult: 0.9, ActivityMult: 1.0},
			{Instructions: 3e9, CPIMult: 1.2, ActivityMult: 0.95},
		},
	},
	// Floating-point suite.
	{
		Name: "bwaves", BaseCPI: 0.95, MemStall: 0.40e-9, Activity: 1.35, AVX: true,
		TotalInstructions: 2.5e11,
	},
	{
		Name: "wrf", BaseCPI: 1.00, MemStall: 0.15e-9, Activity: 1.20, AVX: true,
		TotalInstructions: 3.4e11,
	},
	{
		Name: "nab", BaseCPI: 0.80, MemStall: 0.03e-9, Activity: 1.15,
		TotalInstructions: 4.1e11,
	},
	{
		Name: "fotonik3d", BaseCPI: 1.00, MemStall: 0.50e-9, Activity: 1.10,
		TotalInstructions: 2.3e11,
	},
	{
		Name: "roms", BaseCPI: 1.00, MemStall: 0.30e-9, Activity: 1.15,
		TotalInstructions: 2.9e11,
	},
	{
		Name: "namd", BaseCPI: 0.75, MemStall: 0.02e-9, Activity: 1.20,
		TotalInstructions: 4.3e11,
	},
	{
		Name: "parest", BaseCPI: 0.95, MemStall: 0.20e-9, Activity: 1.00,
		TotalInstructions: 3.3e11,
	},
	{
		Name: "blender", BaseCPI: 0.85, MemStall: 0.10e-9, Activity: 1.05,
		TotalInstructions: 3.7e11,
		Phases: []Phase{
			{Instructions: 4e9, CPIMult: 1.0, ActivityMult: 1.0},
			{Instructions: 2e9, CPIMult: 0.9, ActivityMult: 1.1},
		},
	},
	{
		Name: "pop2", BaseCPI: 1.05, MemStall: 0.25e-9, Activity: 1.15,
		TotalInstructions: 3.0e11,
	},
}
