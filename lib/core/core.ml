(** hscd-coherence: reproduction of Choi & Yew's hardware-supported,
    compiler-directed (HSCD) cache coherence study (ISCA 1996).

    This facade re-exports the layered libraries and offers the one-call
    pipeline most users want: parse (or build) a PFL program, run the
    coherence compiler, and simulate it under any of the paper's four
    schemes on the Fig-8 machine. See README.md for a tour and DESIGN.md
    for the reproduction inventory.

    {1 Layers}

    - {!Lang}: the PFL parallel language (AST, parser, interpreter)
    - {!Compiler}: epoch flow graph, array sections, reference marking
    - {!Arch}: machine configuration and memory events
    - {!Cache}, {!Network}: hardware substrates
    - {!Coherence}: BASE / SC / TPI / HW / LimitLESS schemes
    - {!Sim}: trace generation and the timing engine
    - {!Workloads}: Perfect-Club-style benchmarks and microkernels
    - {!Experiments}: the paper's tables and figures *)

module Lang = struct
  module Ast = Hscd_lang.Ast
  module Builder = Hscd_lang.Builder
  module Lexer = Hscd_lang.Lexer
  module Parser = Hscd_lang.Parser
  module Printer = Hscd_lang.Printer
  module Sema = Hscd_lang.Sema
  module Eval = Hscd_lang.Eval
  module Shape = Hscd_lang.Shape
end

module Compiler = struct
  module Affine = Hscd_compiler.Affine
  module Sections = Hscd_compiler.Sections
  module Gsa = Hscd_compiler.Gsa
  module Segment = Hscd_compiler.Segment
  module Callgraph = Hscd_compiler.Callgraph
  module Epochgraph = Hscd_compiler.Epochgraph
  module Analysis = Hscd_compiler.Analysis
  module Marking = Hscd_compiler.Marking
  module Report = Hscd_compiler.Report
end

module Arch = struct
  module Config = Hscd_arch.Config
  module Event = Hscd_arch.Event
end

module Cache = struct
  module Cache = Hscd_cache.Cache
  module Write_buffer = Hscd_cache.Write_buffer
end

module Network = struct
  module Kruskal_snir = Hscd_network.Kruskal_snir
  module Traffic = Hscd_network.Traffic
end

module Coherence = struct
  module Scheme = Hscd_coherence.Scheme
  module Memstate = Hscd_coherence.Memstate
  module Base = Hscd_coherence.Base
  module Sc = Hscd_coherence.Sc
  module Tpi = Hscd_coherence.Tpi
  module Hwdir = Hscd_coherence.Hwdir
  module Limitless = Hscd_coherence.Limitless
  module Overhead = Hscd_coherence.Overhead
end

module Sim = struct
  module Trace = Hscd_sim.Trace
  module Schedule = Hscd_sim.Schedule
  module Metrics = Hscd_sim.Metrics
  module Engine = Hscd_sim.Engine
  module Run = Hscd_sim.Run
end

module Workloads = struct
  module Kernels = Hscd_workloads.Kernels
  module Perfect = Hscd_workloads.Perfect
end

module Experiments = struct
  module Common = Hscd_experiments.Common
  module Experiments = Hscd_experiments.Experiments
end

(** Parse PFL source text into a checked program. *)
let parse source = Hscd_lang.Sema.check_exn (Hscd_lang.Parser.parse_exn source)

(** Compile (mark) and simulate [program] under [scheme] on [cfg]
    (defaults to the paper's Figure-8 machine). *)
let simulate ?cfg ?(scheme = Hscd_sim.Run.TPI) program =
  Hscd_sim.Run.run_source ?cfg scheme program

(** Compile once and compare all four schemes on the same trace. *)
let compare_schemes ?cfg program = Hscd_sim.Run.compare ?cfg program

(** Compiler view only: marked listing plus census, without simulating. *)
let mark ?(intertask = true) program =
  let program = Hscd_lang.Sema.check_exn program in
  let m = Hscd_compiler.Marking.mark_program ~intertask program in
  (Hscd_compiler.Report.annotated_listing m.Hscd_compiler.Marking.program, m.Hscd_compiler.Marking.census)
