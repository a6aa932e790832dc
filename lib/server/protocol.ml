module Json = Ppdc_prelude.Json

type error_code =
  | Parse_error
  | Invalid_request
  | Line_too_long
  | Unknown_method
  | Unknown_session
  | Session_evicted
  | Invalid_params
  | Overloaded
  | Deadline_exceeded
  | Internal_error

let code_slug = function
  | Parse_error -> "parse_error"
  | Invalid_request -> "invalid_request"
  | Line_too_long -> "line_too_long"
  | Unknown_method -> "unknown_method"
  | Unknown_session -> "unknown_session"
  | Session_evicted -> "session_evicted"
  | Invalid_params -> "invalid_params"
  | Overloaded -> "overloaded"
  | Deadline_exceeded -> "deadline_exceeded"
  | Internal_error -> "internal_error"

type request = { id : Json.t; meth : string; params : Json.t }

let request_of_line line =
  match Json.parse line with
  | exception Failure msg -> Error (Json.Null, Parse_error, msg)
  | Obj _ as json -> (
      let id = Option.value ~default:Json.Null (Json.member "id" json) in
      let invalid msg = Error (id, Invalid_request, msg) in
      match Json.member "method" json with
      | Some (Str meth) -> (
          match Json.member "params" json with
          | None -> Ok { id; meth; params = Json.Obj [] }
          | Some (Obj _ as params) -> Ok { id; meth; params }
          | Some _ -> invalid "\"params\" must be an object")
      | Some _ -> invalid "\"method\" must be a string"
      | None -> invalid "missing \"method\"")
  | _ -> Error (Json.Null, Invalid_request, "request must be a JSON object")

let ok_response ~id result =
  Json.to_string
    (Obj [ ("id", id); ("ok", Bool true); ("result", result) ])

let error_response ~id code message =
  Json.to_string
    (Obj
       [
         ("id", id);
         ("ok", Bool false);
         ( "error",
           Obj
             [
               ("code", Str (code_slug code)); ("message", Str message);
             ] );
       ])

(* --- typed parameter extraction ----------------------------------------- *)

exception Bad_params of string

let bad fmt = Printf.ksprintf (fun msg -> raise (Bad_params msg)) fmt

let str_param params key =
  match Json.member key params with
  | None | Some Null -> None
  | Some (Str s) -> Some s
  | Some _ -> bad "parameter %S must be a string" key

let req_str_param params key =
  match str_param params key with
  | Some s -> s
  | None -> bad "missing required parameter %S" key

let int_param params key =
  match Json.member key params with
  | None | Some Null -> None
  | Some (Num n) when Float.is_integer n && Float.abs n <= 1e15 ->
      Some (int_of_float n)
  | Some _ -> bad "parameter %S must be an integer" key

let float_param params key =
  match Json.member key params with
  | None | Some Null -> None
  | Some (Num n) -> Some n
  | Some _ -> bad "parameter %S must be a number" key

let bool_param params key =
  match Json.member key params with
  | None | Some Null -> None
  | Some (Bool b) -> Some b
  | Some _ -> bad "parameter %S must be a boolean" key

let float_list_param params key =
  match Json.member key params with
  | None | Some Null -> None
  | Some (List elts) ->
      Some
        (Array.of_list
           (List.map
              (function
                | Json.Num n -> n
                | _ -> bad "parameter %S must be an array of numbers" key)
              elts))
  | Some _ -> bad "parameter %S must be an array of numbers" key
