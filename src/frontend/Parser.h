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

/// Parses \p Source; on error, messages are appended to \p Errors and the
/// partial AST is still returned. The AST keeps no reference to
/// \p Source.
ProgramAST parseProgram(std::string_view Source,
                        std::vector<std::string> &Errors);

} // namespace frontend
} // namespace dyc

#endif // DYC_FRONTEND_PARSER_H
