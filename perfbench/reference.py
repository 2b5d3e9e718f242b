"""Fixed pure-Python work that times the machine rather than the program.

The benchmark runs this as a child process before every CLI step and
scales step throughputs by its median wall time. It imports nothing
from ghcodes, so no change to the program can move it; a host that is
busier or slower for a while moves both.
"""

table = {}
total = 0
for i in range(75_000):
    word = bin(i)[2:]
    table[word] = i
    total += word.count("11") + (i * i) % 7
print(total + len("".join(table)))
