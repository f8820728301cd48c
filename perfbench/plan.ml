(* Seeded inputs.  The seed draws every workload parameter and the
   debugger query mix; the program under test only ever sees the
   generated inputs (its own recording seed changes neither the trace
   nor the instruction count).  Parameters are drawn from narrow bands
   around a fixed size, so every seed yields different inputs of
   comparable cost: the run-to-run spread of a metric then measures the
   program, not the luck of the draw. *)

type workload = Compute | Payload | Debug
type size = Full | Tiny

let workloads = [ Compute; Payload; Debug ]

let workload_name = function
  | Compute -> "compute"
  | Payload -> "payload"
  | Debug -> "debug"

let workload_of_string s =
  List.find_opt (fun w -> workload_name w = s) workloads

type input =
  | Octane of Wl_octane.params
  | Samba of Wl_samba.params
  | Make of Wl_make.params

(* One debugger call, with its arguments as fractions of the trace they
   will be resolved against (the trace exists only once recorded). *)
type query =
  | Seek of { at : float }
  | Prev_exec of { before : float; pc : float }
  | Last_write of { before : float; site : float }

type t = {
  workload : workload;
  size : size;
  seed : int;
  input : input;
  queries : query array; (* one pass of the query phase *)
}

let draw st lo hi = lo + Random.State.int st (hi - lo + 1)

(* [centre] +/- [pct] percent. *)
let around st centre pct =
  let d = centre * pct / 100 in
  draw st (centre - d) (centre + d)

let input_of st workload size =
  match (workload, size) with
  | Compute, Full ->
    (* ~0.5 s of host time per recording: threads plus JIT re-emission,
       a trace of about a kilobyte. *)
    Octane
      { Wl_octane.default with
        iters = around st 600 1;
        crunch = around st Wl_octane.default.crunch 1 }
  | Compute, Tiny ->
    Octane { Wl_octane.default with iters = around st 20 10; crunch = 500 }
  | Payload, Full ->
    (* ~300 echoes of ~8 KiB, light guest compute: trace deflate is
       about half of recording's host time. *)
    Samba
      { Wl_samba.echoes = around st 300 1;
        payload = around st 8192 2;
        server_work = around st 2_000 2;
        client_work = around st 1_000 2 }
  | Payload, Tiny ->
    Samba
      { Wl_samba.echoes = around st 12 10;
        payload = around st 8192 5;
        server_work = 500;
        client_work = 250 }
  | Debug, Full ->
    Make { Wl_make.default with compile_work = around st 6_500 1 }
  | Debug, Tiny ->
    Make
      { Wl_make.default with
        jobs = 4;
        compiles = 8;
        compile_work = around st 1_000 10 }

(* The query mix, in percent: mostly frame seeks (gdb's reverse-step and
   reverse-continue landings), then reverse breakpoints, then reverse
   watchpoints, which cost the most per call. *)
let mix = [ (`Seek, 85); (`Prev, 12); (`Write, 3) ]

let queries_per_pass = function Full -> 100 | Tiny -> 40

(* Stratified draws: the [m] values of one kind cover [0, 1), one per
   stratum, at a seeded offset inside it.  The strata are visited in a
   fixed scattered order (by the fractional part of [i] times the golden
   ratio), the same for every seed.  So every seed probes the whole
   trace evenly and walks it in the same pattern, and the cost of a
   pass depends on the program, not on the luck of the shuffle. *)
let scattered m =
  let key i = Float.rem (float_of_int i *. 0.6180339887498949) 1. in
  let order = Array.init m Fun.id in
  Array.stable_sort (fun a b -> Float.compare (key a) (key b)) order;
  order

let strata st m =
  let offset = Array.init m (fun _ -> Random.State.float st 1.) in
  Array.map
    (fun i -> (float_of_int i +. offset.(i)) /. float_of_int m)
    (scattered m)

(* Call [j] of a pass has a fixed kind: the rarer kinds sit at evenly
   spaced positions, seeks fill the rest. *)
let kinds q =
  let a = Array.make q `Seek in
  List.iter
    (fun (kind, pct) ->
      let m = pct * q / 100 in
      for k = 0 to m - 1 do
        let at = (float_of_int k +. 0.5) *. float_of_int q /. float_of_int m in
        let j = ref (int_of_float at) in
        while a.(!j mod q) <> `Seek do
          incr j
        done;
        a.(!j mod q) <- kind
      done)
    (List.filter (fun (k, _) -> k <> `Seek) mix);
  a

let queries_of st size =
  let q = queries_per_pass size in
  let layout = kinds q in
  let count kind =
    Array.fold_left (fun n k -> if k = kind then n + 1 else n) 0 layout
  in
  let seeks = strata st (count `Seek) in
  let pairs kind =
    let m = count kind in
    Array.map2 (fun a b -> (a, b)) (strata st m) (strata st m)
  in
  let prevs = pairs `Prev and writes = pairs `Write in
  let next = Hashtbl.create 3 in
  let take kind =
    let i = Option.value ~default:0 (Hashtbl.find_opt next kind) in
    Hashtbl.replace next kind (i + 1);
    i
  in
  Array.map
    (function
      | `Seek -> Seek { at = seeks.(take `Seek) }
      | `Prev ->
        let before, pc = prevs.(take `Prev) in
        Prev_exec { before; pc }
      | `Write ->
        let before, site = writes.(take `Write) in
        Last_write { before; site })
    layout

let make ~workload ~size ~seed =
  let tag = match workload with Compute -> 1 | Payload -> 2 | Debug -> 3 in
  let st = Random.State.make [| seed; tag |] in
  let input = input_of st workload size in
  let queries = queries_of st size in
  { workload; size; seed; input; queries }

let workload_of_input = function
  | Octane params -> Wl_octane.make ~params ()
  | Samba params -> Wl_samba.make ~params ()
  | Make params -> Wl_make.make ~params ()

let pp_input ppf = function
  | Octane p ->
    Fmt.pf ppf "octane threads=%d iters=%d calls_per_emit=%d crunch=%d"
      p.Wl_octane.threads p.iters p.calls_per_emit p.crunch
  | Samba p ->
    Fmt.pf ppf "sambatest echoes=%d payload=%d server_work=%d client_work=%d"
      p.Wl_samba.echoes p.payload p.server_work p.client_work
  | Make p ->
    Fmt.pf ppf "make jobs=%d compiles=%d src_kb=%d compile_work=%d"
      p.Wl_make.jobs p.compiles p.src_kb p.compile_work

(* [frac] of [0, n) as an index, for resolving a query against a trace. *)
let index_of frac n = min (n - 1) (max 0 (int_of_float (frac *. float_of_int n)))
