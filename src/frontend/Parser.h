//===- frontend/Parser.h - MiniC recursive-descent parser ----------------------===//
//
// Part of the DyC reproduction project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Parses MiniC source into a ProgramAST. Errors are collected (with line
/// numbers) rather than thrown; parsing recovers at statement boundaries.
///
//===----------------------------------------------------------------------===//

#ifndef DYC_FRONTEND_PARSER_H
#define DYC_FRONTEND_PARSER_H

#include "frontend/AST.h"
#include "frontend/Lexer.h"

namespace dyc {
namespace frontend {

/// Parsing and lowering recurse over the program's nesting, so a program
/// nested deeper than this gets one error, and nothing after it is parsed.
/// The nesting is the statements and operands the parser is inside (a
/// parenthesized, index or argument expression is an operand) plus the
/// height of the expression tree it builds there (one more than the
/// deepest operand's). The deepest Table 3 programs (m88ksim, mipsi)
/// reach 23 and the deepest example (bytecode_vm.minic) 15.
constexpr unsigned MaxNestingDepth = 1000;

/// Parses \p Source; on error, messages are appended to \p Errors and the
/// partial AST is still returned. The AST keeps no reference to
/// \p Source.
ProgramAST parseProgram(std::string_view Source,
                        std::vector<std::string> &Errors);

} // namespace frontend
} // namespace dyc

#endif // DYC_FRONTEND_PARSER_H
