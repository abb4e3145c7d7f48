//! Text syntax for dependencies: lexer and recursive-descent parser.

pub mod lexer;
pub mod locate;
pub mod parser;

pub use locate::{locate_applied, locate_ident, locate_quantified};
pub use parser::{
    parse_egd, parse_egd_lexed, parse_fact, parse_fact_lexed, parse_nested_tgd,
    parse_nested_tgd_lexed, parse_so_tgd, parse_so_tgd_lexed, parse_st_tgd,
};
