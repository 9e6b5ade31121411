let with_out path f =
  let tmp = path ^ ".tmp" in
  let oc = open_out tmp in
  match f oc with
  | v ->
    close_out oc;
    Sys.rename tmp path;
    v
  | exception e ->
    let bt = Printexc.get_raw_backtrace () in
    close_out_noerr oc;
    (try Sys.remove tmp with Sys_error _ -> ());
    Printexc.raise_with_backtrace e bt

let write path contents = with_out path (fun oc -> output_string oc contents)
