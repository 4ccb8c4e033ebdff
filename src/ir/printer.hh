/**
 * @file
 * Textual dumping of IR for tests and debugging.
 */

#ifndef ELAG_IR_PRINTER_HH
#define ELAG_IR_PRINTER_HH

#include <string>

#include "ir/ir.hh"

namespace elag {
namespace ir {

/** Render one instruction, e.g. "v3 = load [v1 + 4] (ld_p)". */
std::string toString(const IrInst &inst);

/** Render a function with block labels (tests use it). */
std::string toString(const Function &fn);

} // namespace ir
} // namespace elag

#endif // ELAG_IR_PRINTER_HH
